"""`python -m okcf`: the same command line as the `okcf` console script."""

from .cli import main

raise SystemExit(main())
