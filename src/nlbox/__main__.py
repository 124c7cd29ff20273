"""`python -m nlbox`: the command-line front end, as the installed `nlbox` script."""
from .cli import main
raise SystemExit(main())
