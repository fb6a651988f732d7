"""``python -m turanmatch``: the same command as ``turanmatch``."""

from .cli import main

if __name__ == "__main__":
    main()
