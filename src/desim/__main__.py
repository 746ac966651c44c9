"""``python -m desim``: the same command line as the ``desim`` script."""

from .cli import main

raise SystemExit(main())
