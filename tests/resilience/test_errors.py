"""Tests for the typed error taxonomy and its attribution carrying."""

import pickle

import pytest

from repro.gadgets.builder import Region
from repro.resilience import errors
from repro.resilience.errors import (
    CacheCorruptionError,
    DeadlineExceeded,
    LayoutError,
    ProofFormatError,
    ProvingError,
    QuantizationRangeError,
    ResilienceError,
    SpecError,
    UnknownNameError,
    VerificationFailure,
    region_at,
)


class TestTaxonomy:
    def test_all_errors_are_resilience_errors(self):
        for cls in (SpecError, UnknownNameError, QuantizationRangeError,
                    LayoutError, ProvingError, CacheCorruptionError,
                    ProofFormatError, VerificationFailure, DeadlineExceeded):
            assert issubclass(cls, ResilienceError)

    def test_legacy_value_error_compat(self):
        # pre-taxonomy callers catch ValueError; the new types still match
        with pytest.raises(ValueError):
            raise LayoutError("too narrow")
        with pytest.raises(ValueError):
            raise SpecError("bad spec")

    def test_unknown_name_is_key_error(self):
        with pytest.raises(KeyError):
            raise UnknownNameError("no such model")

    def test_str_appends_attribution(self):
        exc = LayoutError("too narrow", phase="synthesize", layer="fc1",
                          num_cols=3)
        text = str(exc)
        assert "too narrow" in text
        assert "phase=synthesize" in text
        assert "layer=fc1" in text
        assert "num_cols=3" in text

    def test_attribution_dict(self):
        exc = ProvingError("boom", phase="prove", row=7)
        attr = exc.attribution()
        assert attr["error"] == "ProvingError"
        assert attr["phase"] == "prove"
        assert attr["row"] == 7

    def test_every_error_survives_pickling_with_its_context(self):
        # a serve worker ships the typed error itself back to the service
        # (BatchResult.error), so the whole taxonomy must round-trip
        classes = [getattr(errors, name) for name in errors.__all__
                   if name != "region_at"]
        assert ResilienceError in classes and len(classes) >= 24
        for cls in classes:
            exc = cls("boom", phase="prove", layer="fc1", region="fc1[0:4]",
                      row=7, batch_id="batch-1")
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is cls
            assert str(clone) == str(exc)
            assert clone.attribution() == exc.attribution()


class TestWithContext:
    def test_fills_blanks_only(self):
        exc = ResilienceError("x", layer="inner")
        out = exc.with_context(phase="synthesize", layer="outer")
        assert out is exc  # returns self for `raise exc.with_context(...)`
        assert exc.phase == "synthesize"
        assert exc.layer == "inner"  # never overwritten

    def test_default_phase_not_overwritten(self):
        # LayoutError pre-fills phase="layout"; annotation keeps it
        exc = LayoutError("too narrow").with_context(phase="synthesize")
        assert exc.phase == "layout"

    def test_context_kwargs_use_setdefault(self):
        exc = ProvingError("x", row=3)
        exc.with_context(row=99, extra="yes")
        assert exc.context["row"] == 3
        assert exc.context["extra"] == "yes"


class TestRegionAt:
    def test_innermost_region_wins(self):
        regions = [Region(name="layer0", kind="fc", start=0, end=100),
                   Region(name="gadget3", kind="dot", start=40, end=50)]
        hit = region_at(regions, 45)
        assert hit is not None and hit.name == "gadget3"

    def test_outside_all_regions(self):
        regions = [Region(name="layer0", kind="fc", start=0, end=10)]
        assert region_at(regions, 99) is None
