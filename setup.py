"""Build configuration (classic setuptools).

Kept as a plain ``setup.py`` (no ``pyproject.toml``) so ``pip install
-e .`` works in offline environments whose setuptools cannot build
PEP 660 editable wheels (no ``wheel`` package available).

Installs one console script: ``repro`` → ``repro.api.cli``, the unified
front door (DESIGN.md §10).
"""

from setuptools import find_packages, setup

setup(
    name="repro-register-sharing",
    version="1.1.0",  # keep in sync with repro.__version__
    description=(
        "Reproduction of 'Register Sharing for Equality Prediction' "
        "(Perais, Endo, Seznec — MICRO 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            "repro = repro.api.cli:main",
        ],
    },
)
