from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.field": ["gl64_native.c"]},
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "scipy"],
    },
    entry_points={"console_scripts": ["zkml=repro.cli:main"]},
    python_requires=">=3.9",
)
