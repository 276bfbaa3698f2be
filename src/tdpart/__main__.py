"""`python -m tdpart ...` runs the `tdpart` command."""

from .harness import main

raise SystemExit(main())
