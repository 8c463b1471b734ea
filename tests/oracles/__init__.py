"""Reference implementations that differential tests compare against."""
