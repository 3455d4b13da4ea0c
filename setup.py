"""Install script of the ``repro`` package.

The project metadata lives here, in full: name, version (read from
``src/repro/__init__.py``), the ``src/`` layout and the two runtime
requirements: numpy everywhere, and scipy for the Gaussian smoothing of the
synthetic CM1 turbulence (``repro.cm1.microphysics``).  A classic
``setup.py`` also lets ``pip install -e .`` fall back to the legacy
``setup.py develop`` path where no ``wheel`` package is installed (PEP 660
editable installs build a wheel).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
