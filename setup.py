"""Legacy setup shim: enables editable installs without the wheel package."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "OASIS: Offsetting Active Reconstruction Attacks in Federated "
        "Learning (ICDCS 2024) - full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
