"""Task-scorer backends: deterministic mock, shortest-path oracle, remote chat API.

A scorer is any callable taking a TaskScorerQuery and returning one raw
non-negative score per candidate; the three backends here also answer
``route(grid, start, instruction)`` with the text of a whole path, so one
backend serves both planner modes. All benchmark and test runs use the mock or
oracle backends (or recorded cassettes); nothing here touches the network
unless a live RemoteScorer is constructed explicitly. json, hashlib and
urllib.parse are imported in the functions that use them, so a process that
never asks a remote scorer does not load them.
"""

from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from .classical import astar
from .errors import (
    AuthMissing,
    ConfigError,
    MalformedReply,
    RetriesExhausted,
    ScorerFailure,
    ScorerTimeout,
)
from .gridmap import GridPose, OccupancyGrid
from . import translator

if TYPE_CHECKING:
    from .grounded import Instruction


class TaskScorerQuery(NamedTuple):
    """One scoring request: rate the four candidate cells for this state.

    Candidates arrive in tie-break order (up, right, left, down) and may be
    blocked or out of bounds; backends score them anyway and the planner's
    affordance term handles validity. A NamedTuple, so immutable, and cheap
    to build once per planning step.
    """

    instruction: "Instruction"
    grid: OccupancyGrid
    state: GridPose
    candidates: tuple[GridPose, ...]


ScoreTuple = tuple[float, float, float, float]


def mock_score(query: TaskScorerQuery, tau: float = 0.5) -> ScoreTuple:
    """Distance-ranked softmax stand-in for a language model.

    Each candidate k gets exp(-(d_k - d_min) / tau) where d is the Manhattan
    distance to the goal, so the best candidate always scores 1 and tau sets
    how sharply worse candidates fall off.
    """
    if not (tau > 0):
        raise ScorerFailure(f"tau must be > 0, got {tau}")
    gx, gy = query.instruction.goal
    dists = [abs(cx - gx) + abs(cy - gy) for cx, cy in query.candidates]
    d_min = min(dists)
    return tuple([math.exp(-(d - d_min) / tau) for d in dists])  # type: ignore[return-value]


class MockScorer(NamedTuple):
    """Callable wrapper fixing tau for use as a planner backend."""

    tau: float = 0.5

    def __call__(self, query: TaskScorerQuery) -> ScoreTuple:
        return mock_score(query, self.tau)

    def route(self, grid: OccupancyGrid, start: GridPose, instruction: Instruction) -> str:
        # obstacle-blind staircase: x first, then y; wrong on walled maps by design
        x, y = start
        gx, gy = instruction.goal
        cells = [GridPose(x, y)]
        while x != gx:
            x += 1 if gx > x else -1
            cells.append(GridPose(x, y))
        while y != gy:
            y += 1 if gy > y else -1
            cells.append(GridPose(x, y))
        return translator.format_coordinate_list(cells)


class OracleScorer:
    """Score 1 for candidates that lie on a shortest path, else 0.

    A candidate is on a shortest path when its four-connected cost-to-goal
    equals the state's cost minus one. All-zero when the state itself is
    disconnected from the goal. The scorer holds no state: it reads the
    field the grid keeps (``OccupancyGrid.distances_to``), which grids of
    equal content share, so a walk on one grid content builds one field,
    also across scorers, grids and trials.
    """

    def __call__(self, query: TaskScorerQuery) -> ScoreTuple:
        grid = query.grid
        fld, w, h = grid.distances_to(query.instruction.goal), grid.width, grid.height
        sx, sy = query.state
        here = fld[sy * w + sx] if 0 <= sx < w and 0 <= sy < h else math.inf
        if not math.isfinite(here):
            return (0.0, 0.0, 0.0, 0.0)
        on_path = here - 1.0
        return tuple(  # type: ignore[return-value]
            [1.0 if 0 <= cx < w and 0 <= cy < h and fld[cy * w + cx] == on_path else 0.0 for cx, cy in query.candidates]
        )

    def route(self, grid: OccupancyGrid, start: GridPose, instruction: Instruction) -> str:
        # a four-connected A* path, or a reply with no path line when none exists
        p = astar(grid, start, instruction.goal)
        if p is None:
            return "no route found"
        return translator.format_coordinate_list(list(p.waypoints))


# --- remote chat endpoint ---


class ChatEndpointConfig:
    """Where and how to reach a chat-completions endpoint, checked on construction."""

    def __init__(self, base_url: str = "https://api.openai.com/v1", model_name: str = "gpt-3.5-turbo",
                 api_key_env: str = "API_KEY", timeout: float = 30.0, max_retries: int = 3, temperature: float = 0.0):
        from urllib.parse import urlsplit

        # RemoteScorer would retry a URL that urllib cannot post to through the full backoff
        url = urlsplit(base_url) if isinstance(base_url, str) else None
        if url is None or url.scheme not in ("http", "https") or not url.netloc:
            raise ValueError(f"base_url must be an http:// or https:// URL, got {base_url!r}")
        for name, value in (("model_name", model_name), ("api_key_env", api_key_env)):
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        # a socket timeout past about 9.2e9 s overflows, and so does a backoff of 2.0 ** 1024 s
        # a str or None would fail a comparison below with a TypeError, and a float retry count fails range()
        if not (isinstance(timeout, (int, float)) and 0 < timeout <= MAX_TIMEOUT_S):
            raise ValueError(f"timeout must be a number > 0 and at most {MAX_TIMEOUT_S:g} s, got {timeout!r}")
        if not (isinstance(temperature, (int, float)) and -sys.float_info.max <= temperature <= sys.float_info.max):
            raise ValueError(f"temperature must be a finite number, got {temperature!r}")  # an int past the float range is not
        if not (isinstance(max_retries, int) and not isinstance(max_retries, bool) and 0 <= max_retries <= MAX_RETRIES):
            raise ValueError(f"max_retries must be an integer from 0 to {MAX_RETRIES}, got {max_retries!r}")
        self.base_url, self.model_name, self.api_key_env = base_url, model_name, api_key_env
        self.timeout, self.max_retries, self.temperature = timeout, max_retries, temperature

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented


BACKOFF_BASE_S = 1.0
BACKOFF_FACTOR = 2.0
MAX_TIMEOUT_S, MAX_RETRIES = 3600.0, 10


def _retryable(status: int) -> bool:
    return status == 429 or 500 <= status < 600


# printable ASCII but '"' and '\\', plus the newline: the bytes json.dumps copies unescaped, bar "\n"
_PLAIN = bytes(range(0x20, 0x7F)).replace(b'"', b"").replace(b"\\", b"") + b"\n"


def _json_str(text: str) -> bytes:
    """``json.dumps(text)`` as bytes, without the escaper when only a newline needs one."""
    if text.isascii():
        raw = text.encode("ascii")
        if not raw.translate(None, _PLAIN):
            return b'"' + raw.replace(b"\n", b"\\n") + b'"'
    import json

    return json.dumps(text).encode("ascii")


def _chat_envelope(config: ChatEndpointConfig) -> tuple[bytes, bytes]:
    """Canonical JSON of the body ``RemoteScorer`` sends under ``config``, before and after its user text:
    the system message, then the model and the temperature as ``json.dumps`` writes them."""
    import json

    return (b'{"messages":[{"content":' + _json_str(translator.SYSTEM_TEXT) + b',"role":"system"},{"content":',
            b',"role":"user"}],"model":' + _json_str(config.model_name)
            + b',"temperature":' + json.dumps(config.temperature).encode("ascii") + b"}")


def request_fingerprint(body: dict) -> str:
    """Stable hash of a request body: the sha256 hex of its canonical JSON.

    The canonical JSON is ``json.dumps(body, sort_keys=True, separators=(",", ":"))``
    with ASCII escapes, encoded as UTF-8. ``RemoteScorer`` hashes the same
    bytes for its steps and routes from their pieces, without rendering the body.
    """
    import hashlib
    import json

    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


class Cassette:
    """Line-delimited store of {request_hash, response_body} records.

    Replay serves recorded response bodies without any network or
    credentials; record mode appends after each live success.

    Raises:
        ConfigError: an existing file cannot be read, or one of its lines is
            not such a record; the message names the file and the 1-based line.
            ``store`` raises one when it cannot append to the file.
    """

    def __init__(self, path: str | Path, record: bool = False):
        import json

        self.path = Path(path)
        self.record = record
        self._entries: dict[str, str] = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:  # a new cassette
            text = ""
        except OSError as exc:
            raise ConfigError(f"cannot read cassette {self.path}: {exc}") from None
        except UnicodeDecodeError as exc:
            n = exc.object[: exc.start].count(b"\n") + 1
            raise ConfigError(f"cassette {self.path} line {n}: not UTF-8 ({exc.reason})") from None
        for n, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # RecursionError: nested past the limit
                raise ConfigError(f"cassette {self.path} line {n}: not JSON: {exc}") from None
            if not (
                isinstance(rec, dict)
                and isinstance(rec.get("request_hash"), str)
                and isinstance(rec.get("response_body"), str)
            ):
                raise ConfigError(
                    f"cassette {self.path} line {n}: needs request_hash and response_body strings"
                )
            self._entries[rec["request_hash"]] = rec["response_body"]

    def lookup(self, fingerprint: str) -> str | None:
        return self._entries.get(fingerprint)

    def store(self, fingerprint: str, response_body: str) -> None:
        import json

        self._entries[fingerprint] = response_body
        rec = {"request_hash": fingerprint, "response_body": response_body}
        try:
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write cassette {self.path}: {exc}") from None


# transport signature: (url, headers, json_body, timeout) -> (status_code, body_text);
# a transport raises TimeoutError for a timeout and any other OSError for a failure
Transport = Callable[[str, dict, dict, float], tuple[int, str]]


def _urllib_transport(url: str, headers: dict, body: dict, timeout: float) -> tuple[int, str]:
    """POST ``body`` as JSON; a 4xx/5xx reply comes back as ``(status, text)``, not raised.

    The reply is decoded with its declared charset, UTF-8 when it names none.
    A URL urllib cannot use, or a reply that is not HTTP, is raised as
    ``ConnectionError``, so every transport failure is an ``OSError``. urllib
    is imported here rather than at module level, because it loads ssl,
    http.client and email, which no run without a live endpoint needs.
    """
    import http.client
    import json
    import urllib.error
    import urllib.request

    data = json.dumps(body, allow_nan=False).encode("utf-8")
    try:
        request = urllib.request.Request(
            url, data, {**headers, "Content-Type": "application/json"}, method="POST"
        )
        try:
            reply = urllib.request.urlopen(request, timeout=timeout)
            status = reply.status
        except urllib.error.HTTPError as exc:
            reply, status = exc, exc.code
        with reply:
            raw = reply.read()
    except (ValueError, http.client.HTTPException) as exc:
        raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc
    charset = reply.headers.get_content_charset() or "utf-8"
    try:
        return status, raw.decode(charset, errors="replace")
    except LookupError:  # a charset Python does not know
        return status, raw.decode("utf-8", errors="replace")


class RemoteScorer:
    """Scores candidates by asking a chat-completions endpoint.

    Each request (a step in ``__call__``, a whole path in ``route``) is first
    fingerprinted from its pieces: the envelope ``_chat_envelope`` builds once
    from the config the scorer is constructed with, the grid's map text,
    JSON-escaped once per grid and kept for the last grid seen, the two
    markers spliced into it, and the escaped tail the translator renders.
    The fingerprint equals ``request_fingerprint`` of the body, so cassettes
    recorded either way replay. A cassette hit renders no prompt. On a miss
    the translator renders the prompt, which is POSTed to
    ``{base_url}/chat/completions`` with a Bearer key read from the
    environment and stored under that fingerprint, and the reply's scores
    line is parsed. Transport errors (any ``OSError``) and 429/5xx responses
    are retried with exponential backoff (1 s base, factor 2) up to
    max_retries. When the last attempt timed out (a ``TimeoutError``, bare or
    as a ``URLError``'s reason) the failure is ``ScorerTimeout``, otherwise
    ``RetriesExhausted``. With a replay cassette no network or key is needed
    at all.
    """

    def __init__(
        self,
        config: ChatEndpointConfig,
        cassette: Cassette | None = None,
        transport: Transport = _urllib_transport,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.config = config
        self.cassette = cassette
        self._transport = transport
        self._sleep = sleep
        self._head, self._tail = _chat_envelope(config)
        # the last grid fingerprinted, its quoted map header and text JSON-escaped, and where the text starts
        self._grid, self._map, self._map_at = None, memoryview(b""), 0

    def __call__(self, query: TaskScorerQuery) -> ScoreTuple:
        grid, state, instruction, candidates = query.grid, query.state, query.instruction, query.candidates
        tail = translator.step_tail(state, instruction, candidates)
        fingerprint = self._fingerprint(grid, state, instruction.goal, tail)
        content = self._complete(
            fingerprint, lambda: translator.serialize_step_prompt(grid, state, instruction, candidates)
        )
        return translator.parse_action_scores(content)

    def _request_body(self, prompt: translator.StepPrompt) -> dict:
        return {
            "model": self.config.model_name,
            "temperature": self.config.temperature,
            "messages": [
                {"role": "system", "content": prompt.system_text},
                {"role": "user", "content": prompt.user_text},
            ],
        }

    def _fingerprint(self, grid: OccupancyGrid, state: GridPose, goal: GridPose, tail: str) -> str:
        """``request_fingerprint`` of the body whose user text is the map block of ``grid``
        with markers at ``state`` and ``goal``, then ``tail``, hashed without rendering it.

        Raises the translator's marker errors, as rendering would.
        """
        import hashlib

        translator.check_markers(grid, state, goal)
        if grid is not self._grid:
            # a grid's text is '.', '#', '?' and newlines, so a newline is all JSON escapes
            head = ('"' + translator.map_header(grid)).encode("ascii").replace(b"\n", b"\\n")
            self._map = memoryview(head + grid.text.encode("ascii").replace(b"\n", b"\\n"))
            self._grid, self._map_at = grid, len(head)
        # a marker's index in the escaped text: its cell's in ``text``, plus a byte per newline above it
        m, at = self._map, self._map_at
        i = at + grid.text_index(state[0], state[1]) + state[1]
        j = at + grid.text_index(goal[0], goal[1]) + goal[1]
        first, second, a, b = (b"R", b"G", i, j) if i < j else (b"G", b"R", j, i)
        digest = hashlib.sha256(self._head)
        for chunk in (m[:a], first, m[a + 1:b], second, m[b + 1:], memoryview(_json_str(tail))[1:], self._tail):
            digest.update(chunk)
        return digest.hexdigest()

    def complete_text(self, prompt: translator.StepPrompt) -> str:
        """Run one completion and return the assistant text."""
        return self._complete(request_fingerprint(self._request_body(prompt)), lambda: prompt)

    def route(self, grid: OccupancyGrid, start: GridPose, instruction: Instruction) -> str:
        """Ask for a whole path in one exchange and return the assistant text (fullpath mode)."""
        fingerprint = self._fingerprint(grid, start, instruction.goal, translator.fullpath_tail(start, instruction))
        return self._complete(fingerprint, lambda: translator.serialize_fullpath_prompt(grid, start, instruction))

    def _complete(self, fingerprint: str, render: Callable[[], translator.StepPrompt]) -> str:
        """The assistant text of the request ``fingerprint`` names: from the cassette, or on a
        miss from the endpoint, sent the body of the prompt ``render`` makes and recorded."""
        if self.cassette is not None:
            hit = self.cassette.lookup(fingerprint)
            if hit is not None:
                return self._extract_content(hit)
            if not self.cassette.record:
                raise ScorerFailure(
                    f"cassette {self.cassette.path} has no record for request {fingerprint[:12]}"
                )

        api_key = os.environ.get(self.config.api_key_env)
        if not api_key:
            raise AuthMissing(
                f"environment variable {self.config.api_key_env} is not set"
            )
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        headers = {"Authorization": f"Bearer {api_key}"}
        body = self._request_body(render())

        last_error = "no attempt made"
        timed_out = False
        for attempt in range(self.config.max_retries + 1):
            try:
                status, text = self._transport(url, headers, body, self.config.timeout)
            except OSError as exc:  # urllib wraps a connect timeout as a URLError's reason
                reason = getattr(exc, "reason", None)
                timed_out = isinstance(exc, TimeoutError) or isinstance(reason, TimeoutError)
                last_error = f"{'timeout' if timed_out else 'transport error'}: {exc}"
            else:
                if status == 200:
                    if self.cassette is not None and self.cassette.record:
                        self.cassette.store(fingerprint, text)
                    return self._extract_content(text)
                timed_out, last_error = False, f"HTTP {status}"
                if not _retryable(status):
                    raise ScorerFailure(f"endpoint rejected request: {last_error}")
            if attempt < self.config.max_retries:
                self._sleep(BACKOFF_BASE_S * BACKOFF_FACTOR ** attempt)
        if timed_out:
            raise ScorerTimeout(f"gave up after {self.config.max_retries + 1} attempts: {last_error}")
        raise RetriesExhausted(f"gave up after {self.config.max_retries + 1} attempts: {last_error}")

    @staticmethod
    def _extract_content(response_body: str) -> str:
        import json

        try:
            payload = json.loads(response_body)
            content = payload["choices"][0]["message"]["content"]
        except (ValueError, RecursionError, KeyError, IndexError, TypeError):  # bad JSON, too deep, wrong shape
            raise MalformedReply(
                "response body is not a chat completion", reply=response_body
            ) from None
        if not isinstance(content, str):
            raise MalformedReply("completion content is not text", reply=response_body)
        return content
