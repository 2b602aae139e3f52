import pytest


@pytest.fixture(scope="session")
def torus_report():
    """One shared full-precision pipeline run for all torus assertions."""
    from novtorsion.torus import run_example

    return run_example()
