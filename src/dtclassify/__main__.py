"""``python -m dtclassify``: the same command line as ``dtclassify``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
