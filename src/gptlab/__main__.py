"""``python -m gptlab``: the same command line as the ``gptlab`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
