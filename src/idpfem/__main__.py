"""``python -m idpfem``: the command line of ``idpfem.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
