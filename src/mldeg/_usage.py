"""The usage block, the error line and the --help text of mldeg and of
each command, laid out from cli's table of commands and flags as argparse
lays them out at 80 columns.  Only --help and a command-line error load
this module, so no command that runs compiles it.
"""

from __future__ import annotations

import textwrap

from .cli import _COMMANDS

_DESCRIPTION = ("critical-point counts and maximum-likelihood estimates "
                "for single equilibrium reactions")

def _invocation(flag: tuple) -> str:
    name, metavar, _, choices = flag[:4]
    return f"{name} {metavar or '{' + ','.join(choices) + '}'}"


def usage(command) -> str:
    """The usage block of mldeg or of one command, wrapped as argparse
    wraps it at 80 columns: flags first, the positional on a line of its
    own once the block takes more than one."""
    if command is None:
        prog, optional, positional = "mldeg", ["[-h]", "[--version]"], [
            "{" + ",".join(_COMMANDS) + "} ..."]
    else:
        name, flags = _COMMANDS[command][1:3]
        prog, positional = f"mldeg {command}", [name] if name else []
        optional = ["[-h]"] + [
            _invocation(f) if f[5] else f"[{_invocation(f)}]" for f in flags]
    text = " ".join(["usage:", prog, *optional, *positional])
    if len(text) > 78:
        indent, lines = " " * (len(prog) + 7), [f"usage: {prog}"]
        for part in optional:
            if len(lines[-1]) + len(part) >= 78:
                lines.append(indent)
            lines[-1] += " " + part
        text = "\n".join(lines + [f"{indent} {part}" for part in positional])
    return text + "\n"


def help_text(command) -> str:
    """The --help text of mldeg or of one command, as argparse prints it
    at 80 columns."""

    def row(indent, name, text=None):
        head, lines = " " * indent + name, textwrap.wrap(text or "", 54)
        if lines and len(head) <= 22:
            head = head.ljust(24) + lines.pop(0)
        return "\n".join([head, *(" " * 24 + line for line in lines)]) + "\n"

    options = row(2, "-h, --help", "show this help message and exit")
    if command is None:
        sections = [
            textwrap.fill(_DESCRIPTION, 78) + "\n",
            "positional arguments:\n  {" + ",".join(_COMMANDS) + "}\n"
            + "".join(row(4, name, spec[0]) for name, spec in _COMMANDS.items()),
            options + row(2, "--version", "show program's version number and exit"),
        ]
    else:
        name, flags = _COMMANDS[command][1:3]
        sections = [f"positional arguments:\n  {name}\n"] if name else []
        sections.append(options + "".join(row(2, _invocation(f), f[6]) for f in flags))
    sections[-1] = "options:\n" + sections[-1]
    return usage(command) + "".join("\n" + section for section in sections)


def error_text(message: str, command) -> str:
    """The usage block of mldeg or of one command and the error line after
    it, as argparse prints them."""
    prog = "mldeg" if command is None else f"mldeg {command}"
    return f"{usage(command)}{prog}: error: {message}\n"
