"""Legacy setup shim.

The canonical metadata lives in ``pyproject.toml``; this file exists so
``pip install -e .`` works on environments without the ``wheel`` package
(pip falls back to ``setup.py develop``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Multi-vantage-point root cause analysis for mobile video streaming "
        "QoE (CoNEXT 2015 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21", "orjson>=3.8"],
    extras_require={"dev": ["pytest", "hypothesis"]},
)
