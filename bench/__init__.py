"""The repository's one benchmark (see ``bench/README.md``).

Programs against :mod:`repro.api` only, so that collapsing the layers
underneath cannot break the yardstick those changes are judged with.
"""
