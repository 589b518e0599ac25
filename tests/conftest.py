import io
import sys
from typing import Callable, Sequence

from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


class CliResult:
    """How one in-process command ended and what it wrote, as bytes and as text
    with CRLF read as LF; output is stdout followed by stderr."""

    def __init__(self, exit_code: int, stdout_bytes: bytes, stderr_bytes: bytes, exception: BaseException | None):
        self.exit_code = exit_code
        self.stdout_bytes = stdout_bytes
        self.stderr_bytes = stderr_bytes
        self.exception = exception

    stdout = property(lambda self: self.stdout_bytes.decode("utf-8", "replace").replace("\r\n", "\n"))
    stderr = property(lambda self: self.stderr_bytes.decode("utf-8", "replace").replace("\r\n", "\n"))
    output = property(lambda self: self.stdout + self.stderr)


class CliRunner:
    """Runs an entry point in this interpreter as `abelian3 ARGS`, with stdout and stderr captured."""

    def invoke(self, entry: Callable[[], None], args: Sequence[str]) -> CliResult:
        """exit_code is SystemExit's code (0 without one), or 1 with exception
        set when entry raises anything else; a nonzero exit is also kept as exception."""
        out, err = io.BytesIO(), io.BytesIO()
        stdout, stderr = io.TextIOWrapper(out, encoding="utf-8"), io.TextIOWrapper(err, encoding="utf-8")
        saved = sys.argv, sys.stdout, sys.stderr
        sys.argv, sys.stdout, sys.stderr = ["abelian3", *args], stdout, stderr
        exit_code, exception = 0, None
        try:
            entry()
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if exit_code else None
        except Exception as exc:  # noqa: BLE001 - reported in the result, as a test asserts on it
            exit_code, exception = 1, exc
        finally:
            stdout.flush()
            stderr.flush()
            sys.argv, sys.stdout, sys.stderr = saved
        return CliResult(exit_code, out.getvalue(), err.getvalue(), exception)
