import pytest

from shiftlab import parse_sgap_spec

# Shared reference descriptions: bounded gaps throughout, a mix of finite,
# cofinite, and eventually periodic forms.  The tests compare follower
# densities with the almost-specified floor taken at N = gap_sup.  That is
# an observation about these members, not a theorem: gap_sup is not a bound
# on connector lengths ({3,10} needs a connector of length 8, see
# test_gap_sup_is_not_a_connector_bound).
CORPUS_STRINGS = [
    "{0}",
    "{0,1}",
    "{0,2,5}",
    "{1,3}",
    "{0,1,2,4,8,16,32}",
    "co{}",
    "co{0}",
    "co{3}",
    "co{0,1,4}",
    "ep:pre=;pat=0,1",
    "ep:pre=1;pat=1,0",
    "ep:pre=0,1;pat=1,1,0",
]


@pytest.fixture(scope="session")
def corpus():
    return [parse_sgap_spec(s) for s in CORPUS_STRINGS]
