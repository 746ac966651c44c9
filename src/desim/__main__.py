"""``python -m desim``: the same command line as the ``desim`` script."""

from .cli import console_main

console_main()
