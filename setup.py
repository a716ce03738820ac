"""Setuptools shim.

The canonical metadata lives in ``pyproject.toml``; this file exists so
``pip install -e . --no-use-pep517`` works on environments without the
``wheel`` package (PEP 660 editable builds need it, the legacy
``setup.py develop`` path does not).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=("Reproduction of 'Counting Triangles in Large Graphs on GPU' "
                 "(Polak, IPDPSW 2016) on a simulated CUDA substrate"),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    entry_points={"console_scripts": [
        "repro-bench = repro.bench.cli:main",
        "repro-analyze = repro.analyze.cli:main",
    ]},
)
