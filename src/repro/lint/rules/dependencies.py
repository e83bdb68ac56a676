"""Rule R202: every third-party import under ``src/repro`` is declared.

A module the package imports at runtime but ``pyproject.toml`` does not
list under ``[project] dependencies`` works on the developer's machine
(where it happens to be installed) and fails at import on a clean
``pip install``.  R202 flags every absolute import whose top-level module
is neither the standard library nor ``repro`` itself nor a declared
dependency.  A dependency matches an import when its normalised
distribution name (lower case, runs of ``-_.`` folded to ``_``) equals
the import's top-level name.

The rule is stdlib-only and works offline: the standard library is
``sys.stdlib_module_names`` on Python 3.10+ and the checked-in
:data:`STDLIB_MODULES_PY39` list on 3.9; the declared dependencies come
from a small reader of the ``[project]`` table (``tomllib`` only exists
from 3.11).
"""

from __future__ import annotations

import ast
import re
import sys
from typing import FrozenSet, Optional, Sequence

from repro.lint.framework import FileContext, Rule, find_repo_root, register_rule

#: Top-level standard-library modules of CPython 3.9: 3.10's
#: ``sys.stdlib_module_names`` plus the modules 3.10 removed.
STDLIB_MODULES_PY39: FrozenSet[str] = frozenset(
    """
    __future__ _abc _aix_support _ast _asyncio _bisect _blake2 _bootlocale
    _bootsubprocess _bz2 _codecs _codecs_cn _codecs_hk _codecs_iso2022
    _codecs_jp _codecs_kr _codecs_tw _collections _collections_abc
    _compat_pickle _compression _contextvars _crypt _csv _ctypes _curses
    _curses_panel _datetime _dbm _decimal _elementtree _frozen_importlib
    _frozen_importlib_external _functools _gdbm _hashlib _heapq _imp _io
    _json _locale _lsprof _lzma _markupbase _md5 _msi _multibytecodec
    _multiprocessing _opcode _operator _osx_support _overlapped _peg_parser
    _pickle _posixshmem _posixsubprocess _py_abc _pydecimal _pyio _queue
    _random _scproxy _sha1 _sha256 _sha3 _sha512 _signal _sitebuiltins
    _socket _sqlite3 _sre _ssl _stat _statistics _string _strptime _struct
    _symtable _thread _threading_local _tkinter _tracemalloc _uuid _warnings
    _weakref _weakrefset _winapi _zoneinfo abc aifc antigravity argparse
    array ast asynchat asyncio asyncore atexit audioop base64 bdb binascii
    binhex bisect builtins bz2 cProfile calendar cgi cgitb chunk cmath cmd
    code codecs codeop collections colorsys compileall concurrent
    configparser contextlib contextvars copy copyreg crypt csv ctypes curses
    dataclasses datetime dbm decimal difflib dis distutils doctest email
    encodings ensurepip enum errno faulthandler fcntl filecmp fileinput
    fnmatch formatter fractions ftplib functools gc genericpath getopt
    getpass gettext glob graphlib grp gzip hashlib heapq hmac html http
    idlelib imaplib imghdr imp importlib inspect io ipaddress itertools json
    keyword lib2to3 linecache locale logging lzma mailbox mailcap marshal
    math mimetypes mmap modulefinder msilib msvcrt multiprocessing netrc nis
    nntplib nt ntpath nturl2path numbers opcode operator optparse os
    ossaudiodev parser pathlib pdb pickle pickletools pipes pkgutil platform
    plistlib poplib posix posixpath pprint profile pstats pty pwd py_compile
    pyclbr pydoc pydoc_data pyexpat queue quopri random re readline reprlib
    resource rlcompleter runpy sched secrets select selectors shelve shlex
    shutil signal site smtpd smtplib sndhdr socket socketserver spwd sqlite3
    sre_compile sre_constants sre_parse ssl stat statistics string
    stringprep struct subprocess sunau symbol symtable sys sysconfig syslog
    tabnanny tarfile telnetlib tempfile termios textwrap this threading time
    timeit tkinter token tokenize trace traceback tracemalloc tty turtle
    turtledemo types typing unicodedata unittest urllib uu uuid venv
    warnings wave weakref webbrowser winreg winsound wsgiref xdrlib xml
    xmlrpc zipapp zipfile zipimport zlib zoneinfo
    """.split()
)

#: The package's own top-level name.
FIRST_PARTY = "repro"


def stdlib_modules() -> FrozenSet[str]:
    """Top-level standard-library module names of this interpreter."""
    names = getattr(sys, "stdlib_module_names", None)
    return frozenset(names) if names is not None else STDLIB_MODULES_PY39


def normalise(name: str) -> str:
    """PEP 503-style name folding, so ``Foo-Bar`` matches ``import foo_bar``."""
    return re.sub(r"[-_.]+", "_", name).lower()


_TABLE_HEADER = re.compile(r"^\s*\[\[?\s*([^\[\]]+?)\s*\]\]?\s*(?:#.*)?$")
_DEPENDENCIES = re.compile(r"^\s*dependencies\s*=\s*\[", re.MULTILINE)
_ARRAY_TOKEN = re.compile(r"\"([^\"]*)\"|'([^']*)'|#[^\n]*|\]")
_REQUIREMENT_NAME = re.compile(r"^\s*([A-Za-z0-9][A-Za-z0-9._-]*)")


def _project_table(pyproject_text: str) -> str:
    """The body of the ``[project]`` table."""
    lines = []
    table = None
    for line in pyproject_text.splitlines():
        header = _TABLE_HEADER.match(line)
        if header:
            table = header.group(1)
        elif table == "project":
            lines.append(line)
    return "\n".join(lines)


def declared_dependencies(pyproject_text: str) -> FrozenSet[str]:
    """Normalised names from ``[project] dependencies`` in *pyproject_text*."""
    table = _project_table(pyproject_text)
    start = _DEPENDENCIES.search(table)
    if start is None:
        return frozenset()
    names = set()
    for token in _ARRAY_TOKEN.finditer(table, start.end()):
        if token.group(0) == "]":
            break
        requirement = _REQUIREMENT_NAME.match(token.group(1) or token.group(2) or "")
        if requirement:
            names.add(normalise(requirement.group(1)))
    return frozenset(names)


@register_rule
class DeclaredDependencyRule(Rule):
    """R202: third-party imports under ``src/repro`` must be declared.

    Reads ``pyproject.toml`` from the repository root above each linted
    file; a file with no such root (an in-memory fixture) is skipped.
    """

    code = "R202"
    name = "undeclared-dependency"
    rationale = (
        "an import that pyproject.toml does not declare fails on a clean "
        "install while passing every test on a machine that has it"
    )
    paths = ("src/repro/",)
    node_types = (ast.Import, ast.ImportFrom)

    def __init__(self) -> None:
        self._allowed: Optional[FrozenSet[str]] = None

    def begin_file(self, ctx: FileContext) -> None:
        self._allowed = None
        path = ctx.source.path
        root = find_repo_root(path) if path is not None else None
        if root is None:
            return
        pyproject = root / "pyproject.toml"
        declared = declared_dependencies(pyproject.read_text())
        self._allowed = stdlib_modules() | declared | {FIRST_PARTY}

    def visit(self, node: ast.AST, stack: Sequence[ast.AST], ctx: FileContext) -> None:
        if self._allowed is None:
            return
        if isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                return  # relative imports stay inside the package
            modules = [node.module]
        else:
            modules = [alias.name for alias in node.names]
        for module in modules:
            top = module.split(".", 1)[0]
            if top not in self._allowed and normalise(top) not in self._allowed:
                ctx.report(
                    self,
                    node,
                    f"import of {top!r}, which is neither the standard library "
                    "nor declared in pyproject.toml [project] dependencies",
                )
