"""Language-model client contract, deterministic mocks, HTTP backend.

A backend turns an LLMRequest (a system and a user prompt) into plain
response text; ``HttpChatBackend`` names its own model. The two mocks
are pure functions of the request, which makes the whole pipeline a
pure function of (dataset, seed, configuration) and lets tests pin
end-to-end behavior without network access:

* ``TitleEchoMock`` replays the step titles it finds in the prompt, so
  title order is observable in the output.
* ``ThresholdMockLLM`` reads the machine-readable probability and
  fallback-threshold lines out of the prompt and answers with exactly
  the verdict a hard threshold on the ensemble would produce.

Token accounting uses ceil(characters / 4) everywhere; budgets are
enforced by the pipeline before dispatch.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from typing import NamedTuple

from ..errors import OBJECT, STRING, BackendError, VerdictParseError, check_fields

API_KEY_VARIABLE = "ADAM_LLM_API_KEY"
TIMEOUT_SECONDS = 120.0

PROBABILITY_PATTERN = re.compile(
    r"^Model probability of AD: [0-9.]+% \(p=([0-9eE+.-]+)\)$", re.MULTILINE)
THRESHOLD_PATTERN = re.compile(
    r"^Fallback decision threshold: ([0-9eE+.-]+)$", re.MULTILINE)
VERDICT_PATTERN = re.compile(r"^Prediction: (Yes|No)(?:\s*-.*)?$")
STEP_TITLE_PATTERN = re.compile(r"^## Step [1-8]: (.+)$", re.MULTILINE)


def estimate_tokens(text: str) -> int:
    """Backend-agnostic token estimate: ceil(characters / 4)."""
    return math.ceil(len(text) / 4)


def probability_line(probability: float) -> str:
    """The machine-readable probability line embedded in prompts."""
    return (f"Model probability of AD: {100.0 * probability:.2f}% "
            f"(p={probability:.17g})")


def threshold_line(threshold: float) -> str:
    return f"Fallback decision threshold: {threshold:.17g}"


def parse_verdict(text: str) -> str:
    """Extract Yes/No from the first line; anything else is an error."""
    if not isinstance(text, str) or not text.strip():
        raise VerdictParseError("empty model reply", raw=text or "")
    first = text.strip().splitlines()[0].strip()
    match = VERDICT_PATTERN.match(first)
    if match is None:
        raise VerdictParseError(
            f"first line {first!r} does not match 'Prediction: (Yes|No)'",
            raw=text)
    return match.group(1)


class LLMRequest(NamedTuple):
    system: str
    user: str


class LLMBackend:
    """Contract: complete() maps one request to one response text."""

    def complete(self, request: LLMRequest) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class StaticMock(LLMBackend):
    """Always answers with the same text (error-path testing)."""

    reply: str

    def complete(self, request: LLMRequest) -> str:
        return self.reply


class TitleEchoMock(LLMBackend):
    """Summarization mock: echoes every step title found in the prompt,
    in prompt order, one acknowledgment line per step."""

    def complete(self, request: LLMRequest) -> str:
        titles = STEP_TITLE_PATTERN.findall(request.user)
        lines = ["Summary of the visit:"]
        lines.extend(f"{i}. {title}: reviewed."
                     for i, title in enumerate(titles, start=1))
        return "\n".join(lines)


class ThresholdMockLLM(LLMBackend):
    """Classification mock: verdict = (probability >= threshold).

    Both numbers are parsed from the prompt's machine-readable lines at
    full precision, so with this backend the pipeline's verdicts are
    exactly a hard threshold on the deployed ensemble.
    """

    def complete(self, request: LLMRequest) -> str:
        prob = PROBABILITY_PATTERN.search(request.user)
        thresh = THRESHOLD_PATTERN.search(request.user)
        if prob is None:
            raise BackendError("prompt lacks the model-probability line")
        if thresh is None:
            raise BackendError("prompt lacks the fallback-threshold line")
        verdict = "Yes" if float(prob.group(1)) >= float(thresh.group(1)) else "No"
        return f"Prediction: {verdict}"


class HttpChatBackend(LLMBackend):
    """Chat-completion-style HTTP backend.

    Sends {model, messages, max_tokens 1024, temperature 0} and reads
    the first choice's message content. The credential comes from
    ADAM_LLM_API_KEY unless passed explicitly; each POST may take
    TIMEOUT_SECONDS and is retried as ``http_retry`` describes.
    """

    def __init__(self, url: str, model: str, api_key: str | None = None,
                 session=None, sleeper=time.sleep):
        from ..http_retry import JsonEndpoint

        self.model = model
        self._endpoint = JsonEndpoint(url, API_KEY_VARIABLE, TIMEOUT_SECONDS,
                                      api_key, session, sleeper)

    def complete(self, request: LLMRequest) -> str:
        payload = {
            "model": self.model,
            "messages": [{"role": "system", "content": request.system},
                         {"role": "user", "content": request.user}],
            "max_tokens": 1024,
            "temperature": 0.0,
        }
        return self._parse(self._endpoint.post(payload, "chat"))

    @staticmethod
    def _parse(doc) -> str:
        where = "malformed chat response"
        check_fields(doc, {"choices": (lambda v: isinstance(v, list) and v != [],
                                       "a non-empty list")}, where, BackendError)
        choice = doc["choices"][0]
        check_fields(choice, {"message": OBJECT}, f"{where}: choices[0]", BackendError)
        check_fields(choice["message"], {"content": STRING},
                     f"{where}: choices[0].message", BackendError)
        return choice["message"]["content"]
