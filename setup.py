from setuptools import find_packages, setup

with open("README.md", encoding="utf-8") as handle:
    long_description = handle.read()

setup(
    name="circuitvae-repro",
    version="1.0.0",
    description=(
        "CircuitVAE (DAC 2024) reproduction: latent circuit optimization "
        "with a parallel, persistent, batched evaluation engine"
    ),
    long_description=long_description,
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.22"],
    entry_points={"console_scripts": ["repro=repro.api.cli:main"]},
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Electronic Design Automation (EDA)",
        "License :: OSI Approved :: MIT License",
    ],
)
