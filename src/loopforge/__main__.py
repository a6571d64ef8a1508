"""`python -m loopforge`: the same CLI as the installed `loopforge` script."""

from .cli import run

if __name__ == "__main__":
    run()
