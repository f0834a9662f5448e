"""The argparse parser of the CLI, built from its command table.  Only
help and usage errors load this module: ``cli.run`` reads a well-formed
argv from the table itself, and hands argparse any argv it declines."""
from __future__ import annotations

import argparse


def build_argparser(input_options: dict, output_options: dict,
                    commands: dict) -> argparse.ArgumentParser:
    """``input_options`` are accepted before the command only,
    ``output_options`` before or after it, and ``commands`` maps each
    command to its help and its own options."""
    parser = argparse.ArgumentParser(
        prog="lexigraph",
        description="dictionary-definition analysis over LEXF lexicons")
    for flag, spec in {**input_options, **output_options}.items():
        parser.add_argument(flag, **spec)
    # after the subcommand the output options default to SUPPRESS, so a
    # value given before it is kept
    output_flags = argparse.ArgumentParser(add_help=False)
    for flag, spec in output_options.items():
        output_flags.add_argument(flag, **{**spec, "default": argparse.SUPPRESS})
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in commands.items():
        command = sub.add_parser(name, parents=[output_flags], help=help_text)
        for flag, spec in options.items():
            command.add_argument(flag, **spec)
    return parser
