"""`python -m delayfilter ...` runs the command line interface."""

from .cli import console

if __name__ == "__main__":
    console()
