"""Packaging metadata and console entry points.

The execution environment has no network access and no ``wheel`` package, so
PEP 660 editable installs (which need ``bdist_wheel``) are unavailable.  This
``setup.py`` lets ``pip install -e .`` fall back to the legacy
``setup.py develop`` path, which works offline.  Without installing anything,
``PYTHONPATH=src python -m repro.cli`` runs the same CLI the ``repro-sweep``
console script exposes.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Single-source the version from the package (it is folded into the sweep
# cache's code fingerprint, so distribution metadata must not drift from it).
_VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    Path(__file__).with_name("src").joinpath("repro", "__init__.py").read_text("utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro-async-fpga",
    version=_VERSION,
    description=(
        "Behavioural-model reproduction of the DATE'05 multi-style "
        "asynchronous FPGA paper: fabric, CAD flow, simulators, sweep engine"
    ),
    python_requires=">=3.11",
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={
        "console_scripts": [
            "repro-sweep=repro.cli:main",
            "repro-fuzz=repro.fuzz:main",
            "repro-lint=repro.verify.cli:main",
        ],
    },
)
