"""Spelling-mistakes plugin: realistic one-letter typos.

Implements the five typo submodels of Sections 2.1 and 4.1, adapted from the
triphone classification of van Berkel & De Smedt:

* **omission** -- one character is missing,
* **insertion** -- a spurious character (produced by the intended key or one
  of its neighbours) slips in,
* **substitution** -- a character is replaced by the output of a nearby key
  pressed with the same modifiers,
* **case alteration** -- the case of adjacent letters is swapped because the
  Shift key was pressed or released at the wrong moment,
* **transposition** -- two adjacent letters are swapped.

Each submodel extends the abstract modify template; the plugin composes them
over the token view and can either enumerate all possible typos or select a
bounded random subset per target token (the paper's case studies pick a
handful of random typos per directive).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.infoset import ConfigNode, ConfigSet
from repro.core.templates.base import AddressIndex, FaultScenario, SetFieldOperation
from repro.core.templates.primitives import ModifyTemplate
from repro.core.views.token_view import (
    TOKEN_DIRECTIVE_NAME,
    TOKEN_DIRECTIVE_VALUE,
    TOKEN_SECTION_ARG,
    TOKEN_SECTION_NAME,
    TokenView,
)
from repro.errors import PluginError, SpecError
from repro.keyboard.typist import Typist
from repro.plugins.base import (
    ErrorGeneratorPlugin,
    positive_int_param,
    register_plugin,
    string_list_param,
)

__all__ = [
    "TypoModel",
    "OmissionModel",
    "InsertionModel",
    "SubstitutionModel",
    "CaseAlterationModel",
    "TranspositionModel",
    "TypoTemplate",
    "SpellingMistakesPlugin",
    "default_models",
]


# ----------------------------------------------------------------------- models
class TypoModel(ABC):
    """One category of single-keystroke error."""

    #: Identifier used in scenario categories (``typo-<name>``).
    name: str = "typo"

    @abstractmethod
    def mutations(self, word: str) -> list[str]:
        """All distinct faulty spellings of ``word`` under this model."""

    def category(self) -> str:
        """Scenario category for this model."""
        return f"typo-{self.name}"


class OmissionModel(TypoModel):
    """Drop one character (hurried typing misses a keystroke)."""

    name = "omission"

    def mutations(self, word: str) -> list[str]:
        if len(word) < 2:
            return []  # dropping the only character deletes the word, not a typo
        seen: dict[str, None] = {}
        for index in range(len(word)):
            seen.setdefault(word[:index] + word[index + 1:], None)
        return [variant for variant in seen if variant != word]


class InsertionModel(TypoModel):
    """Insert a spurious character next to an intended keystroke."""

    name = "insertion"

    def __init__(self, typist: Typist | None = None):
        self.typist = typist or Typist()

    def mutations(self, word: str) -> list[str]:
        if not word:
            return []
        seen: dict[str, None] = {}
        # A slip can land *before* the first keystroke too: the spurious
        # character comes from the first intended key or its neighbours
        # (Section 4.1's insertion model covers both sides of a keypress).
        for candidate in self.typist.insertion_candidates(word[0]):
            seen.setdefault(candidate + word, None)
        for index, char in enumerate(word):
            for candidate in self.typist.insertion_candidates(char):
                seen.setdefault(word[: index + 1] + candidate + word[index + 1:], None)
        return [variant for variant in seen if variant != word]


class SubstitutionModel(TypoModel):
    """Replace a character with the output of a neighbouring key."""

    name = "substitution"

    def __init__(self, typist: Typist | None = None):
        self.typist = typist or Typist()

    def mutations(self, word: str) -> list[str]:
        seen: dict[str, None] = {}
        for index, char in enumerate(word):
            for candidate in self.typist.substitution_candidates(char):
                seen.setdefault(word[:index] + candidate + word[index + 1:], None)
        return [variant for variant in seen if variant != word]


class CaseAlterationModel(TypoModel):
    """Swap the case of adjacent letters (Shift-key miscoordination)."""

    name = "case-alteration"

    def mutations(self, word: str) -> list[str]:
        seen: dict[str, None] = {}
        for index in range(len(word) - 1):
            first, second = word[index], word[index + 1]
            if not (first.isalpha() and second.isalpha()):
                continue
            if first.isupper() == second.isupper():
                continue
            swapped = word[:index] + first.swapcase() + second.swapcase() + word[index + 2:]
            seen.setdefault(swapped, None)
        # A lone capital at a word boundary can also lose or gain its Shift.
        for index, char in enumerate(word):
            if char.isalpha() and char.isupper():
                seen.setdefault(word[:index] + char.lower() + word[index + 1:], None)
        return [variant for variant in seen if variant != word]


class TranspositionModel(TypoModel):
    """Swap two adjacent characters within a word."""

    name = "transposition"

    def mutations(self, word: str) -> list[str]:
        seen: dict[str, None] = {}
        for index in range(len(word) - 1):
            if word[index] == word[index + 1]:
                continue
            swapped = word[:index] + word[index + 1] + word[index] + word[index + 2:]
            seen.setdefault(swapped, None)
        return [variant for variant in seen if variant != word]


def default_models(typist: Typist | None = None) -> list[TypoModel]:
    """The five paper submodels, sharing one keyboard model."""
    typist = typist or Typist()
    return [
        OmissionModel(),
        InsertionModel(typist),
        SubstitutionModel(typist),
        CaseAlterationModel(),
        TranspositionModel(),
    ]


#: Model constructors by registry name, used by spec-driven construction.
_MODEL_BUILDERS: dict[str, Callable[[Typist], TypoModel]] = {
    OmissionModel.name: lambda typist: OmissionModel(),
    InsertionModel.name: lambda typist: InsertionModel(typist),
    SubstitutionModel.name: lambda typist: SubstitutionModel(typist),
    CaseAlterationModel.name: lambda typist: CaseAlterationModel(),
    TranspositionModel.name: lambda typist: TranspositionModel(),
}


# --------------------------------------------------------------------- template
class TypoTemplate(ModifyTemplate):
    """Adapter exposing a :class:`TypoModel` as an abstract-modify template."""

    field_name = "value"

    def __init__(self, target: str, model: TypoModel):
        super().__init__(target, category=model.category())
        self.model = model

    def mutations_for(self, node: ConfigNode, rng: random.Random) -> Iterable[tuple[str, str]]:
        word = self.current_value(node) or ""
        return [(self.model.name, variant) for variant in self.model.mutations(word)]


# ----------------------------------------------------------------------- plugin
@register_plugin
class SpellingMistakesPlugin(ErrorGeneratorPlugin):
    """Generate one-letter typos in configuration tokens.

    Parameters
    ----------
    token_types:
        Which token classes to target (directive names, directive values,
        section names...).  Restricting by token type is how the paper limits
        injection "to a specific part of the configuration" (Section 4.1).
    models:
        The typo submodels to use (default: all five).
    mutations_per_token:
        When set, at most this many randomly chosen typos are produced per
        target token; when None, every possible typo becomes a scenario.
    directives_per_section:
        When set, only up to this many randomly drawn directives per section
        (or file root) are targeted, as in the paper's Table 1 ("up to ten
        randomly selected directives" per section).  One draw per campaign
        covers every targeted token type, so a campaign over directive names
        and values misspells the names and the values of the same directives.
    """

    name = "spelling"
    param_names = (
        "token_types",
        "models",
        "mutations_per_token",
        "layout",
        "directives_per_section",
    )

    def __init__(
        self,
        token_types: Sequence[str] = (TOKEN_DIRECTIVE_NAME, TOKEN_DIRECTIVE_VALUE),
        models: Sequence[TypoModel] | None = None,
        mutations_per_token: int | None = None,
        layout_name: str | None = None,
        directives_per_section: int | None = None,
    ):
        if layout_name is not None:
            from repro.keyboard.layouts import get_layout

            typist = Typist(get_layout(layout_name))
        else:
            typist = Typist()
        self.layout_name = layout_name
        self.token_types = tuple(token_types)
        self.models = list(models) if models is not None else default_models(typist)
        if not self.models:
            raise PluginError("SpellingMistakesPlugin requires at least one typo model")
        self.mutations_per_token = mutations_per_token
        self.directives_per_section = directives_per_section
        self._view = TokenView()

    @property
    def view(self) -> TokenView:
        return self._view

    def manifest_params(self) -> dict:
        params = {
            "token_types": list(self.token_types),
            "models": [model.name for model in self.models],
            "mutations_per_token": self.mutations_per_token,
            "layout": self.layout_name,
        }
        if self.directives_per_section is not None:
            params["directives_per_section"] = self.directives_per_section
        return params

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "SpellingMistakesPlugin":
        cls.check_param_names(params)
        known_tokens = (
            TOKEN_DIRECTIVE_NAME,
            TOKEN_DIRECTIVE_VALUE,
            TOKEN_SECTION_NAME,
            TOKEN_SECTION_ARG,
        )
        token_types = (TOKEN_DIRECTIVE_NAME, TOKEN_DIRECTIVE_VALUE)
        if params.get("token_types") is not None:
            token_types = tuple(
                string_list_param("token_types", params["token_types"], allowed=known_tokens)
            )
        from repro.keyboard.layouts import available_layouts, get_layout

        layout = params.get("layout")
        if layout is not None:
            if not isinstance(layout, str):
                raise SpecError(f"layout: expected a layout name, got {layout!r}")
            try:
                get_layout(layout)
            except KeyError:
                from repro.analysis.suggest import unknown_name

                message = unknown_name("layout", layout, available_layouts())
                raise SpecError(f"layout: {message}") from None
        models = None
        if params.get("models") is not None:
            names = string_list_param("models", params["models"], allowed=tuple(_MODEL_BUILDERS))
            if not names:
                raise SpecError("models: must name at least one typo model")
            typist = Typist() if layout is None else Typist(get_layout(layout))
            models = [_MODEL_BUILDERS[name](typist) for name in names]
        return cls(
            token_types=token_types,
            models=models,
            mutations_per_token=positive_int_param(
                "mutations_per_token", params.get("mutations_per_token")
            ),
            layout_name=layout,
            directives_per_section=positive_int_param(
                "directives_per_section", params.get("directives_per_section")
            ),
        )

    # ------------------------------------------------------------------ faults
    def _selected_directives(
        self, view_set: ConfigSet, rng: random.Random
    ) -> set[tuple[str, tuple[int, ...]]]:
        """``(tree, source path)`` of up to ``directives_per_section`` random
        directives of each section (or file root)."""
        per_section: dict[tuple[str, tuple[int, ...]], list[tuple[str, tuple[int, ...]]]] = {}
        for tree in view_set:
            for line in tree.root.children_of_kind("line"):
                if line.get("source_kind") != "directive":
                    continue
                path = tuple(line.get("source_path", ()))
                per_section.setdefault((tree.name, path[:-1]), []).append((tree.name, path))
        selected: set[tuple[str, tuple[int, ...]]] = set()
        for members in per_section.values():
            if len(members) > self.directives_per_section:
                members = rng.sample(members, self.directives_per_section)
            selected.update(members)
        return selected

    def target_tokens(self, view_set: ConfigSet, rng: random.Random) -> list[ConfigNode]:
        """Token nodes eligible for typo injection (``rng`` draws the
        ``directives_per_section`` subset)."""
        selected = None
        if self.directives_per_section is not None:
            selected = self._selected_directives(view_set, rng)
        tokens: list[ConfigNode] = []
        for tree in view_set:
            for node in tree.walk():
                if node.kind != "token":
                    continue
                if node.get("token_type") not in self.token_types:
                    continue
                if not (node.value or "").strip():
                    continue
                if selected is not None and (
                    node.get("source_tree"), tuple(node.get("source_path", ()))
                ) not in selected:
                    continue
                tokens.append(node)
        return tokens

    def mutations_for_token(self, token: ConfigNode) -> list[tuple[TypoModel, str]]:
        """Every (model, faulty spelling) pair applicable to ``token``."""
        word = token.value or ""
        result: list[tuple[TypoModel, str]] = []
        for model in self.models:
            for variant in model.mutations(word):
                result.append((model, variant))
        return result

    def generate(self, view_set: ConfigSet, rng: random.Random) -> list[FaultScenario]:
        scenarios: list[FaultScenario] = []
        ordinal = 0
        addresses = AddressIndex(view_set)
        for token in self.target_tokens(view_set, rng):
            candidates = self.mutations_for_token(token)
            if not candidates:
                continue
            if self.mutations_per_token is not None and len(candidates) > self.mutations_per_token:
                candidates = rng.sample(candidates, self.mutations_per_token)
            address = addresses.address_of(token)
            original = token.value or ""
            for model, variant in candidates:
                scenarios.append(
                    FaultScenario(
                        scenario_id=f"typo-{ordinal}-{model.name}",
                        description=(
                            f"{model.name} typo in {token.get('token_type')} "
                            f"{original!r} -> {variant!r}"
                        ),
                        category=model.category(),
                        operations=(SetFieldOperation(address, "value", variant),),
                        metadata={
                            "token_type": token.get("token_type"),
                            "source_tree": token.get("source_tree"),
                            "source_path": tuple(token.get("source_path", ())),
                            "directive": token.get("owner_name"),
                            "field": token.get("field"),
                            "original": original,
                            "mutated": variant,
                            "model": model.name,
                        },
                    )
                )
                ordinal += 1
        return scenarios
