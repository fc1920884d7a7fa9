"""Setup shim for environments without the `wheel` package (offline installs).

All project metadata lives in pyproject.toml; setuptools >= 61 reads it from
there.  This file only enables the legacy editable install,
`python setup.py develop`, which does not build a wheel.
"""

from setuptools import setup

setup()
