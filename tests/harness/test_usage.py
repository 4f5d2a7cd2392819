"""The CLI usage text is rendered from the flag table, so it cannot drift."""

from repro.harness.__main__ import (
    _COMMANDS,
    _FLAG_TARGETS,
    _FLAGS,
    _GENERATORS,
    _usage,
)


def _option(flag: str) -> str:
    return flag[2:].replace("-", "_")


def test_every_flag_appears_in_the_usage():
    text = _usage()
    for flag in _FLAGS:
        assert flag in text, flag


def test_choices_are_spelled_out():
    text = _usage()
    for flag, (kind, spec, _) in _FLAGS.items():
        if kind == "choice":
            assert f"{flag}={'|'.join(spec)}" in text


def test_every_flag_has_a_reader_and_every_read_option_a_flag():
    read = {option for options in _FLAG_TARGETS.values() for option in options}
    for _, required, optional in _COMMANDS.values():
        read.update(required + optional)
    assert read == {_option(flag) for flag in _FLAGS}
    assert set(_FLAG_TARGETS) <= set(_GENERATORS)


def test_required_command_flags_are_not_bracketed():
    text = _usage()
    assert "explain --database=NAME --question=REF" in text
    assert "explain-request --request=N" in text
    assert "[--update-baseline]" in text
