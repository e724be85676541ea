"""Append-only JSONL files that survive a torn tail.

Shared by the result store's shards, the fleet's event logs and the trace
span sink, so all three terminate a torn final line the same way.
"""

import os

__all__ = ["append_line"]


def append_line(path: str, data: bytes) -> None:
    """Append the newline-terminated ``data`` to ``path``.

    One ``O_APPEND`` write, so appenders never interleave within a line.  A
    writer killed mid-``write`` (or a full disk) can leave a final fragment
    without its newline: when the last byte is not ``\\n``, one is written
    first, so replay skips the fragment instead of gluing ``data`` onto it.
    A short write raises :class:`OSError`, so the caller never indexes a
    line that is not fully on disk (the next append terminates it).
    Callers that need the check-then-write to be atomic against other
    appenders hold a lock around the call.
    """
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        written = os.write(fd, data)
        if written != len(data):
            raise OSError(f"{path}: short append ({written} of {len(data)} "
                          "bytes written)")
    finally:
        os.close(fd)
