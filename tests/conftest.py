import pytest

from uavcap import RadarLinkParams, SensingRegion, parse_config


@pytest.fixture
def reference_region() -> SensingRegion:
    return parse_config("").region()


@pytest.fixture
def reference_link() -> RadarLinkParams:
    return parse_config("").link()


@pytest.fixture
def reference_config():
    return parse_config()
