"""Knowledge-grounded, tool-orchestrating interpretation of echo studies."""

__version__ = "0.1.0"
