"""Parameter records (satlink.domain.Record) and their domains: construction,
defaults, frozen fields, equality and hash, replace, repr and pickling on
every record, each construction check's text, and each declared domain's
ConfigError through the CLI."""

import math
import pickle
import re
from types import SimpleNamespace

import pytest
from satlink import cli
from satlink.atmosphere import ExtinctionModel
from satlink.beam import BeamParams, ReceiverParams
from satlink.bounds import MaxRangeResult
from satlink.cli import CONFIG_KEYS, main
from satlink.cvqkd import ProtocolParams
from satlink.errors import ConfigError, NumericalError
from satlink.fading import FadingModel
from satlink.scenario import Scenario

from _reference import replace

# each record with fields that differ from their defaults; replace changes the first again
SAMPLES = {
    BeamParams: dict(wavelength=1550e-9, waist=0.3, curvature=5e3),
    ReceiverParams: dict(aperture=0.75, efficiency=0.5, excess_photons=0.01),
    ExtinctionModel: dict(alpha0=4e-6, h_scale=7e3),
    ProtocolParams: dict(block_size=200_000_000, pilots=10_000_000, detection="hom", tail="hoeffding"),
    Scenario: dict(link="up", period="day", setup=2, beam=BeamParams(waist=0.4),
                   receiver=ReceiverParams(aperture=1.0), profile="hv-worst-day"),
    FadingModel: dict(eta=0.1, gamma=2.0, spread=45.0, eta_atm=0.8),
    MaxRangeResult: dict(z_max=1e9, capped=True),
}
# a valid new value for the first field of each sample
CHANGED = {
    BeamParams: 1064e-9, ReceiverParams: 1.0, ExtinctionModel: 6e-6, ProtocolParams: 300_000_000,
    Scenario: "down", FadingModel: 0.2, MaxRangeResult: 2e9,
}
records = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)


def sample(cls):
    return cls(**SAMPLES[cls])


def values(record) -> dict:
    return {name: getattr(record, name) for name in type(record)._fields}


@records
def test_construction_by_position_and_keyword(cls):
    record = sample(cls)
    assert {name: getattr(record, name) for name in SAMPLES[cls]} == SAMPLES[cls]
    fields = values(record)
    first, *rest = fields
    assert cls(*fields.values()) == record
    assert cls(fields[first], **{name: fields[name] for name in rest}) == record


@records
def test_unknown_repeated_missing_or_surplus_fields_are_type_errors(cls):
    fields = values(sample(cls))
    first = next(iter(fields))
    with pytest.raises(TypeError):
        cls(**fields, bogus=1.0)
    with pytest.raises(TypeError):
        cls(*fields.values(), 1.0)
    with pytest.raises(TypeError):
        cls(fields[first], **fields)
    required = [name for name in fields if name not in cls._defaults]
    if required:
        with pytest.raises(TypeError):
            cls(**{name: value for name, value in fields.items() if name != required[0]})


def test_defaults():
    assert values(BeamParams()) == {"wavelength": 800e-9, "waist": 0.2, "curvature": math.inf}
    assert BeamParams.waist == 0.2 and ReceiverParams.aperture == 0.4 and ReceiverParams.filter_width == 1e-9
    assert values(ExtinctionModel()) == {"alpha0": 5e-6, "h_scale": 6600.0}
    assert ProtocolParams().eps_pe == 2.0**-33 and ProtocolParams().detection == "het"
    assert MaxRangeResult(5.0).capped is False
    scn = Scenario()
    assert (scn.link, scn.period, scn.sky, scn.setup, scn.profile) == ("down", "night", "clear", 1, None)
    # a nested default is one frozen instance, shared
    assert scn.beam == BeamParams() and scn.protocol == ProtocolParams()
    assert scn.beam is Scenario().beam and scn.protocol is Scenario(link="up").protocol


@pytest.mark.parametrize("setup", [1, 2, 3, 4])
def test_plain_constructor_takes_no_preset_without_its_hardware(setup):
    # the default beam and receiver are preset 1's; the others come with their own
    built = Scenario.build("down", "night", setup=setup)
    if setup == 1:
        assert Scenario(link="down", period="night", setup=1) == built
    else:
        with pytest.raises(ConfigError, match=f"Scenario.setup: preset {setup} takes its beam and receiver"):
            Scenario(link="down", period="night", setup=setup)
    assert Scenario(link="down", period="night", setup=setup, beam=built.beam, receiver=built.receiver) == built


@records
def test_fields_are_frozen(cls):
    record = sample(cls)
    first = next(iter(SAMPLES[cls]))
    for name in (first, "bogus"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert getattr(record, first) == SAMPLES[cls][first]


@records
def test_equality_and_hash_by_type_and_values(cls):
    record, twin = sample(cls), sample(cls)
    assert record == twin and hash(record) == hash(twin) and record is not twin
    first = next(iter(SAMPLES[cls]))
    other = replace(record, **{first: CHANGED[cls]})
    assert record != other and not record == other
    assert record != SimpleNamespace(**values(record)) and record != tuple(values(record).values())
    assert len({record, twin, other}) == 2


def test_equality_ignores_cached_state():
    computed, fresh = Scenario.build("up", setup=2), Scenario.build("up", setup=2)
    assert computed.nbar_prime > 0 and "nbar_prime" in vars(computed)  # a cached_property
    assert computed == fresh and hash(computed) == hash(fresh)
    assert computed.protocol.delta_aep > 0 and computed.protocol == ProtocolParams()


@records
def test_replace(cls):
    record = sample(cls)
    first = next(iter(SAMPLES[cls]))
    copy = replace(record, **{first: CHANGED[cls]})
    assert type(copy) is cls and getattr(copy, first) == CHANGED[cls]
    assert {**values(record), first: CHANGED[cls]} == values(copy)
    assert values(record) == values(sample(cls))  # the record itself is unchanged
    assert replace(record) == record
    with pytest.raises(TypeError):
        replace(record, bogus=1.0)


def test_replace_checks_the_new_record():
    with pytest.raises(ConfigError, match=re.escape("BeamParams.waist: expected a positive quantity, got -1.0")):
        replace(BeamParams(), waist=-1.0)
    with pytest.raises(NumericalError, match=re.escape("eta must lie in (0, 1)")):
        replace(sample(FadingModel), eta=1.0)


@records
def test_repr_names_each_field(cls):
    record = sample(cls)
    fields = ", ".join(f"{name}={value!r}" for name, value in values(record).items())
    assert repr(record) == f"{cls.__name__}({fields})"


def test_repr():
    assert repr(ExtinctionModel()) == "ExtinctionModel(alpha0=5e-06, h_scale=6600.0)"
    assert repr(MaxRangeResult(1.5)) == "MaxRangeResult(z_max=1.5, capped=False)"


@records
def test_pickle_holds_the_fields_alone(cls):
    record = sample(cls)
    hash(record)
    copy = pickle.loads(pickle.dumps(record))
    assert set(vars(copy)) == set(cls._fields)  # no cached hash: a str hashes apart in each process
    assert copy == record and hash(copy) == hash(record)


@pytest.mark.parametrize(
    "build,error,text",
    [
        (lambda: BeamParams(waist=0.0), ConfigError, "BeamParams.waist: expected a positive quantity, got 0.0"),
        (lambda: BeamParams(curvature=0.0), ConfigError,
         "BeamParams.curvature: expected a non-zero quantity (inf: collimated), got 0.0"),
        (lambda: ReceiverParams(efficiency=math.nan), ConfigError,
         "ReceiverParams.efficiency: expected a quantity in (0, 1], got nan"),
        (lambda: ExtinctionModel(alpha0=-1.0), ConfigError,
         "ExtinctionModel.alpha0: expected a non-negative quantity, got -1.0"),
        (lambda: ProtocolParams(mu=1.0), ConfigError, "ProtocolParams.mu: expected a quantity above 1, got 1.0"),
        (lambda: ProtocolParams(block_size=5, pilots=5), ConfigError,
         "ProtocolParams.pilots must be below ProtocolParams.block_size, got 5 and 5"),
        (lambda: ProtocolParams(tail="bogus"), ConfigError,
         "ProtocolParams.tail: expected one of 'gaussian', 'hoeffding', got 'bogus'"),
        (lambda: Scenario(setup=9), ConfigError, "Scenario.setup: expected one of 1, 2, 3, 4, got 9"),
        (lambda: Scenario(kappa_override=-1.0), ConfigError,
         "Scenario.kappa_override: expected a non-negative quantity, got -1.0"),
        (lambda: FadingModel(eta=1.0, gamma=2.0, spread=math.inf, eta_atm=0.8), NumericalError,
         "eta must lie in (0, 1)"),
        (lambda: FadingModel(eta=0.5, gamma=2.0, spread=-45.0, eta_atm=0.8), NumericalError,
         "invalid fading parameters"),
    ],
)
def test_construction_checks_keep_their_text(build, error, text):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == text


def test_unset_optional_fields_are_not_checked():
    scn = Scenario(profile=None, h_sky_override=None, kappa_override=None)
    assert scn.profile_name == "hv-night"


# the first of these values that a key parses and its domain rejects
OUTSIDE = ("-1", "0")


@pytest.mark.parametrize("key,path,parse", CONFIG_KEYS, ids=[key for key, _, _ in CONFIG_KEYS])
def test_each_domain_is_a_config_error_naming_the_key(key, path, parse, capsys):
    owner, _, name = path.rpartition(".")
    domain = cli._OWNERS[owner]._domains[name]
    text = next(text for text in OUTSIDE if not domain.holds(parse(text)))
    assert main(["show-config", "--set", f"{key}={text}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {key}: expected {domain.text}, got {parse(text)!r}\n"
