"""Unit tests for the spelling-mistakes plugin and its typo submodels."""

import random

import pytest

from repro.core.infoset import ConfigSet
from repro.core.views.token_view import TOKEN_DIRECTIVE_NAME, TOKEN_DIRECTIVE_VALUE
from repro.errors import PluginError
from repro.keyboard import Typist, get_layout
from repro.parsers.base import get_dialect, serialize_tree
from repro.plugins.spelling import (
    CaseAlterationModel,
    InsertionModel,
    OmissionModel,
    SpellingMistakesPlugin,
    SubstitutionModel,
    TranspositionModel,
    TypoTemplate,
    default_models,
)


@pytest.fixture
def config_set() -> ConfigSet:
    text = "[mysqld]\nport = 3306\nkey_buffer_size = 16M\n"
    return ConfigSet([get_dialect("ini").parse(text, "my.cnf")])


class TestOmissionModel:
    model = OmissionModel()

    def test_every_mutation_is_one_char_shorter(self):
        for variant in self.model.mutations("port"):
            assert len(variant) == 3

    def test_all_positions_covered(self):
        assert set(self.model.mutations("abc")) == {"bc", "ac", "ab"}

    def test_single_character_words_not_emptied(self):
        assert self.model.mutations("a") == []

    def test_duplicate_results_removed(self):
        # dropping either 'o' of "foo" yields the same string
        assert self.model.mutations("foo").count("fo") == 1


class TestInsertionModel:
    model = InsertionModel()

    def test_mutations_are_one_char_longer(self):
        for variant in self.model.mutations("port"):
            assert len(variant) == 5

    def test_double_press_included(self):
        assert "pport" in self.model.mutations("port") or "poort" in self.model.mutations("port")

    def test_inserted_characters_are_keyboard_neighbours(self):
        typist = Typist()
        candidates = set(typist.insertion_candidates("a"))
        for variant in InsertionModel(typist).mutations("a"):
            inserted = variant[0] if variant[1] == "a" else variant[1]
            assert inserted in candidates

    def test_insertion_before_the_first_character(self):
        # regression: slips used to be generated only *after* keystrokes,
        # so "Xport"-style variants (spurious key before the word) were lost
        variants = self.model.mutations("port")
        assert any(variant.endswith("port") and len(variant) == 5 for variant in variants)

    def test_prefix_insertions_use_first_key_neighbourhood(self):
        typist = Typist()
        candidates = set(typist.insertion_candidates("p"))
        prefixed = [v for v in InsertionModel(typist).mutations("port") if v.endswith("port")]
        assert prefixed and all(variant[0] in candidates for variant in prefixed)

    def test_single_character_word_has_prefix_and_suffix_slips(self):
        variants = set(self.model.mutations("a"))
        assert any(v[1] == "a" for v in variants)  # prefix slip: "?a"
        assert any(v[0] == "a" for v in variants)  # suffix slip: "a?"

    def test_empty_word(self):
        assert self.model.mutations("") == []


class TestSubstitutionModel:
    model = SubstitutionModel()

    def test_mutations_preserve_length(self):
        for variant in self.model.mutations("port"):
            assert len(variant) == 4

    def test_substitutions_use_adjacent_keys(self):
        variants = self.model.mutations("g")
        assert set(variants) <= set(Typist().substitution_candidates("g"))

    def test_substitutions_preserve_shift_state(self):
        variants = self.model.mutations("G")
        assert variants and all(c.isupper() for c in variants if c.isalpha())

    def test_azerty_layout_changes_candidates(self):
        azerty = SubstitutionModel(Typist(get_layout("azerty")))
        assert set(azerty.mutations("q")) != set(self.model.mutations("q"))


class TestCaseAlterationModel:
    model = CaseAlterationModel()

    def test_adjacent_case_swap(self):
        assert "SErverName"[0:2].swapcase() + "rverName"[1:] or True
        variants = self.model.mutations("ServerName")
        assert "serverName" in variants or "sErverName" in variants

    def test_lowercase_word_has_no_alterations(self):
        assert self.model.mutations("port") == []

    def test_non_alpha_not_touched(self):
        assert all("_" in variant for variant in self.model.mutations("My_Opt") if variant)


class TestTranspositionModel:
    model = TranspositionModel()

    def test_swaps_adjacent_characters(self):
        assert set(self.model.mutations("abc")) == {"bac", "acb"}

    def test_identical_adjacent_chars_skipped(self):
        assert self.model.mutations("aa") == []

    def test_length_preserved(self):
        for variant in self.model.mutations("3306"):
            assert len(variant) == 4


class TestTypoTemplate:
    def test_template_generates_one_scenario_per_mutation(self, config_set):
        template = TypoTemplate("//directive[@name='port']", OmissionModel())
        # the template operates on the *system* tree values directly
        scenarios = template.generate(config_set, random.Random(0))
        assert {s.metadata["mutated"] for s in scenarios} == {"306", "336", "330"}
        assert all(s.category == "typo-omission" for s in scenarios)


class TestSpellingPlugin:
    def test_default_models_cover_all_five_classes(self):
        assert {m.name for m in default_models()} == {
            "omission", "insertion", "substitution", "case-alteration", "transposition",
        }

    def test_requires_at_least_one_model(self):
        with pytest.raises(PluginError):
            SpellingMistakesPlugin(models=[])

    def test_generate_targets_requested_token_types(self, config_set):
        plugin = SpellingMistakesPlugin(token_types=(TOKEN_DIRECTIVE_NAME,), mutations_per_token=2)
        view_set = plugin.view.transform(config_set)
        scenarios = plugin.generate(view_set, random.Random(0))
        assert scenarios
        assert all(s.metadata["token_type"] == TOKEN_DIRECTIVE_NAME for s in scenarios)

    def test_mutations_per_token_bounds_scenarios(self, config_set):
        plugin = SpellingMistakesPlugin(mutations_per_token=1)
        view_set = plugin.view.transform(config_set)
        scenarios = plugin.generate(view_set, random.Random(0))
        per_token: dict[tuple, int] = {}
        for scenario in scenarios:
            key = (scenario.metadata["directive"], scenario.metadata["field"], scenario.metadata["original"])
            per_token[key] = per_token.get(key, 0) + 1
        assert all(count == 1 for count in per_token.values())

    def test_directives_per_section_targets_names_and_values_of_one_draw(self):
        options = "".join(f"opt_{i} = value{i}\n" for i in range(6))
        text = f"[mysqld]\n{options}[client]\nport = 1\n"
        config_set = ConfigSet([get_dialect("ini").parse(text, "my.cnf")])
        plugin = SpellingMistakesPlugin.from_params(
            {"mutations_per_token": 1, "directives_per_section": 2}
        )
        view_set = plugin.view.transform(config_set)

        def targeted(seed: int) -> dict[str, set[str]]:
            by_field: dict[str, set[str]] = {}
            for scenario in plugin.generate(view_set, random.Random(seed)):
                by_field.setdefault(scenario.metadata["field"], set()).add(
                    scenario.metadata["directive"]
                )
            return by_field

        draws = [targeted(seed) for seed in range(8)]
        for by_field in draws:
            # two of [mysqld]'s six directives, plus [client]'s only one
            assert len(by_field["name"]) == 3 and "port" in by_field["name"]
            assert by_field["value"] == by_field["name"]
        assert targeted(0) == draws[0]
        assert len({frozenset(by_field["name"]) for by_field in draws}) > 1

    def test_directives_per_section_round_trips_through_params(self):
        plugin = SpellingMistakesPlugin.from_params({"directives_per_section": 3})
        assert plugin.manifest_params()["directives_per_section"] == 3
        assert "directives_per_section" not in SpellingMistakesPlugin().manifest_params()

    def test_generation_is_deterministic_per_seed(self, config_set):
        plugin = SpellingMistakesPlugin(mutations_per_token=2)
        view_set = plugin.view.transform(config_set)
        first = [s.metadata["mutated"] for s in plugin.generate(view_set, random.Random(5))]
        second = [s.metadata["mutated"] for s in plugin.generate(view_set, random.Random(5))]
        assert first == second

    def test_scenarios_apply_and_serialise(self, config_set):
        plugin = SpellingMistakesPlugin(mutations_per_token=1)
        view_set = plugin.view.transform(config_set)
        for scenario in plugin.generate(view_set, random.Random(0)):
            mutated_view = scenario.apply(view_set)
            back = plugin.view.untransform(mutated_view, config_set)
            text = serialize_tree(back.get("my.cnf"))
            assert scenario.metadata["mutated"] in text

    def test_mutated_value_differs_from_original(self, config_set):
        plugin = SpellingMistakesPlugin(mutations_per_token=3)
        view_set = plugin.view.transform(config_set)
        for scenario in plugin.generate(view_set, random.Random(0)):
            assert scenario.metadata["mutated"] != scenario.metadata["original"]

    def test_layout_name_parameter(self, config_set):
        plugin = SpellingMistakesPlugin(layout_name="dvorak", mutations_per_token=1)
        view_set = plugin.view.transform(config_set)
        assert plugin.generate(view_set, random.Random(0))

    def test_unknown_layout_raises(self):
        with pytest.raises(KeyError):
            SpellingMistakesPlugin(layout_name="colemak")
