"""Counting the pair passes of the operator forms."""

from __future__ import annotations

from fracsolve import gagliardo


def count_form_passes(monkeypatch) -> list:
    """A list that records the ``gradient`` flag of every pass over the
    pairs i < j that ``gagliardo`` makes for an energy or a gradient from
    here on: True for a fused energy and gradient pass, False for an
    energy alone."""
    passes = []
    form_pass = gagliardo._form_pass

    def counted(op, uv, gradient):
        passes.append(gradient)
        return form_pass(op, uv, gradient)

    monkeypatch.setattr(gagliardo, "_form_pass", counted)
    return passes
