"""Every ``console_scripts`` entry in setup.cfg names a callable
``main``, so a script left pointing at a deleted module fails here."""

import configparser
import importlib
import os

import pytest

SETUP_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "setup.cfg")


def console_scripts():
    parser = configparser.ConfigParser()
    parser.read(SETUP_CFG)
    lines = parser["options.entry_points"]["console_scripts"].splitlines()
    return [tuple(part.strip() for part in line.split("="))
            for line in lines if line.strip()]


def test_console_script_names_are_unique():
    names = [name for name, _target in console_scripts()]
    assert names and len(names) == len(set(names))


@pytest.mark.parametrize("name,target", console_scripts())
def test_console_script_imports(name, target):
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr)), name
