"""Legacy setup shim so `pip install -e .` works offline without `wheel`."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Eon Mode: Bringing the Vertica Columnar Database "
        "to the Cloud' (SIGMOD 2018)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
)
