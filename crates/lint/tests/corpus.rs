//! Corpus tests: each fixture under `tests/fixtures/` must fire its
//! rules at exactly the expected `line: rule` pairs, suppression
//! semantics must hold, and the real workspace must stay clean — the
//! same contract the CI `lint` job enforces.

use sparsedist_lint::config::Config;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Lint a fixture as if it lived at `pretend_path` (scoping is purely
/// path-based, so the fixture can be placed in any rule's territory).
fn check(pretend_path: &str, name: &str) -> Vec<(usize, &'static str)> {
    let (violations, _) =
        sparsedist_lint::check_source(pretend_path, &fixture(name), &Config::default());
    violations.into_iter().map(|v| (v.line, v.rule)).collect()
}

#[test]
fn d_rules_fire_at_exact_lines() {
    assert_eq!(
        check("crates/multicomputer/src/fixture.rs", "bad_d_rules.rs"),
        vec![
            (3, "D003"),
            (4, "D001"),
            (7, "D001"),
            (12, "D002"),
            (16, "D003"),
            (17, "D003"),
        ]
    );
}

#[test]
fn d_rules_police_the_progress_engine() {
    // The NIC progress model lives in the clock-bearing multicomputer
    // crate: wall clocks, entropy, and unordered maps are all illegal
    // there, whether in a field type or a function body.
    assert_eq!(
        check(
            "crates/multicomputer/src/progress.rs",
            "bad_progress_rules.rs"
        ),
        vec![
            (4, "D003"),
            (5, "D001"),
            (8, "D001"),
            (9, "D003"),
            (13, "D002"),
        ]
    );
}

#[test]
fn d_rules_police_the_event_loop_executor() {
    // The event-loop executor replays rank tasks over virtual time; a
    // wall clock, entropy, or an unordered map in its scheduler state
    // would break bit-identical replay across runs and engines.
    let expected = vec![
        (5, "D003"),
        (6, "D001"),
        (9, "D003"),
        (10, "D001"),
        (14, "D002"),
        (18, "D001"),
    ];
    assert_eq!(
        check("crates/multicomputer/src/exec.rs", "bad_exec_rules.rs"),
        expected
    );
    // And not just under the default config: the checked-in lint.toml
    // must keep exec.rs inside D-rule territory too.
    let cfg = sparsedist_lint::load_config(&workspace_root()).expect("lint.toml parses");
    let (violations, _) = sparsedist_lint::check_source(
        "crates/multicomputer/src/exec.rs",
        &fixture("bad_exec_rules.rs"),
        &cfg,
    );
    let got: Vec<(usize, &str)> = violations.iter().map(|v| (v.line, v.rule)).collect();
    assert_eq!(got, expected);
}

#[test]
fn p_rules_fire_at_exact_lines() {
    assert_eq!(
        check("crates/core/src/fixture.rs", "bad_p_rules.rs"),
        vec![(4, "P001"), (7, "P001"), (12, "P002"), (16, "P002")]
    );
}

#[test]
fn p_rules_exempt_the_engine() {
    // The same raw-channel code is legal inside engine.rs — that is the
    // one module allowed to own channels.
    let hits = check("crates/multicomputer/src/engine.rs", "bad_p_rules.rs");
    assert!(hits.iter().all(|&(_, rule)| rule != "P001"), "{hits:?}");
}

#[test]
fn checked_in_config_keeps_channels_out_of_the_pipeline() {
    // The `[rules.P001]` table in lint.toml exempts ONLY engine.rs: the
    // staged pipeline driver and the NIC progress model must compose
    // Env::isend/wait_all and receives, never raw channel endpoints.
    let cfg = sparsedist_lint::load_config(&workspace_root()).expect("lint.toml parses");
    for path in [
        "crates/core/src/schemes/pipeline.rs",
        "crates/multicomputer/src/progress.rs",
    ] {
        let (violations, _) = sparsedist_lint::check_source(path, &fixture("bad_p_rules.rs"), &cfg);
        let got: Vec<(usize, &str)> = violations.iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(
            got,
            vec![(4, "P001"), (7, "P001"), (12, "P002"), (16, "P002")],
            "at pretend path {path}"
        );
    }
    let (violations, _) = sparsedist_lint::check_source(
        "crates/multicomputer/src/engine.rs",
        &fixture("bad_p_rules.rs"),
        &cfg,
    );
    assert!(
        violations
            .iter()
            .all(|v| v.rule != "P001" && v.rule != "P002"),
        "engine.rs keeps its channel/charging exemption under lint.toml"
    );
}

#[test]
fn e_rules_fire_at_exact_lines() {
    assert_eq!(
        check("crates/cli/src/fixture.rs", "bad_e_rules.rs"),
        vec![
            (5, "E005"),
            (6, "E001"),
            (7, "E002"),
            (9, "E003"),
            (11, "E004"),
        ]
    );
}

#[test]
fn e_rules_scope_to_the_hygiene_crates() {
    // Every library crate and the facade are on the error-hygiene floor;
    // the bench harness is not, so only the workspace-wide E004 (todo!)
    // fires there.
    let all = vec![
        (5, "E005"),
        (6, "E001"),
        (7, "E002"),
        (9, "E003"),
        (11, "E004"),
    ];
    for path in [
        "crates/gen/src/fixture.rs",
        "crates/ops/src/fixture.rs",
        "src/fixture.rs",
    ] {
        assert_eq!(check(path, "bad_e_rules.rs"), all, "{path}");
    }
    assert_eq!(
        check("crates/bench/src/fixture.rs", "bad_e_rules.rs"),
        vec![(11, "E004")]
    );
}

#[test]
fn s_rules_fire_at_exact_lines() {
    assert_eq!(
        check("crates/core/src/fixture.rs", "bad_s_rules.rs"),
        vec![(5, "S001"), (9, "S002")]
    );
}

#[test]
fn w_rules_fire_at_exact_lines() {
    assert_eq!(
        check("crates/multicomputer/src/fixture.rs", "bad_w_rules.rs"),
        vec![(4, "W001"), (8, "W001"), (12, "W002")]
    );
}

#[test]
fn w002_is_scoped_to_clock_bearing_crates() {
    // Outside core/multicomputer only the narrowing W001 casts count.
    assert_eq!(
        check("crates/gen/src/fixture.rs", "bad_w_rules.rs"),
        vec![(4, "W001"), (8, "W001")]
    );
}

#[test]
fn w_rules_exempt_the_wire_codec_family_only() {
    // Under the checked-in lint.toml the codec modules may narrow — the
    // per-message width negotiation is the point…
    let root = workspace_root();
    let cfg = sparsedist_lint::load_config(&root).expect("lint.toml parses");
    for path in [
        "crates/core/src/wire/mod.rs",
        "crates/core/src/wire/codec.rs",
        "crates/core/src/wire/varint.rs",
        "crates/core/src/wire/bitpack.rs",
        "crates/core/src/wire/v3.rs",
    ] {
        let (violations, _) = sparsedist_lint::check_source(path, &fixture("bad_w_rules.rs"), &cfg);
        assert!(violations.is_empty(), "{path}: {violations:?}");
    }
    // …while the same truncating casts anywhere outside the family still
    // fire, including right next door in core.
    for path in [
        "crates/core/src/encode.rs",
        "crates/core/src/schemes/cfs.rs",
        "crates/multicomputer/src/pack.rs",
    ] {
        let (violations, _) = sparsedist_lint::check_source(path, &fixture("bad_w_rules.rs"), &cfg);
        let got: Vec<(usize, &str)> = violations.iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(got, vec![(4, "W001"), (8, "W001"), (12, "W002")], "{path}");
    }
}

#[test]
fn c001_fires_on_non_receive_awaits_only() {
    assert_eq!(
        check("crates/core/src/schemes/fixture.rs", "bad_c001.rs"),
        vec![(6, "C001"), (7, "C001")]
    );
    assert_eq!(
        check("crates/core/src/schemes/fixture.rs", "clean_c001.rs"),
        vec![]
    );
}

#[test]
fn c001_allows_the_send_budget_park_and_nothing_more() {
    // `Env::send_budget` and the pipeline's `source_send` loop that awaits
    // it are the only yield points besides receives; a stored future or a
    // look-alike name is still flagged.
    assert_eq!(
        check("crates/core/src/schemes/pipeline.rs", "budget_c001.rs"),
        vec![(8, "C001"), (9, "C001")]
    );
}

#[test]
fn c001_allows_the_router_delivery_loop_and_nothing_more() {
    // `Router::route_parts` awaits the send budget after each first
    // delivery, so awaiting it is a yield point; the router's other
    // methods and a look-alike name are still flagged.
    assert_eq!(
        check("crates/core/src/schemes/pipeline.rs", "route_c001.rs"),
        vec![(6, "C001"), (7, "C001")]
    );
}

#[test]
fn c002_fires_on_undrained_posts_only() {
    assert_eq!(
        check("crates/core/src/schemes/fixture.rs", "bad_c002.rs"),
        vec![(4, "C002"), (9, "C002"), (17, "C002")]
    );
    assert_eq!(
        check("crates/core/src/schemes/fixture.rs", "clean_c002.rs"),
        vec![]
    );
    // The engine implements the post/drain API; it is exempt by scope.
    assert_eq!(
        check("crates/multicomputer/src/engine.rs", "bad_c002.rs"),
        vec![]
    );
}

#[test]
fn c003_fires_on_headerless_routed_sends_only() {
    assert_eq!(
        check("crates/core/src/schemes/pipeline.rs", "bad_c003.rs"),
        vec![(5, "C003"), (15, "C003")]
    );
    assert_eq!(
        check("crates/core/src/schemes/pipeline.rs", "clean_c003.rs"),
        vec![]
    );
}

#[test]
fn c004_fires_on_unprovenanced_retry_charges_only() {
    assert_eq!(
        check("crates/core/src/schemes/fixture.rs", "bad_c004.rs"),
        vec![(4, "C004")]
    );
    assert_eq!(
        check("crates/core/src/schemes/fixture.rs", "clean_c004.rs"),
        vec![]
    );
    // The ARQ layer itself charges Retry freely.
    assert_eq!(
        check("crates/multicomputer/src/progress.rs", "bad_c004.rs"),
        vec![]
    );
}

#[test]
fn c005_fires_outside_the_multicomputer_only() {
    assert_eq!(
        check("crates/core/src/fixture.rs", "bad_c005.rs"),
        vec![(3, "C005"), (4, "C005"), (5, "C005"), (7, "C005")]
    );
    assert_eq!(check("crates/core/src/fixture.rs", "clean_c005.rs"), vec![]);
    // Inside the engine crate the seam is legal — it *is* the seam.
    assert_eq!(
        check("crates/multicomputer/src/fixture.rs", "bad_c005.rs"),
        vec![]
    );
}

#[test]
fn c_rules_hold_under_the_checked_in_config() {
    // lint.toml must keep the C scoping: pipeline.rs in C002 territory,
    // engine.rs exempt, and the multicomputer outside C005.
    let cfg = sparsedist_lint::load_config(&workspace_root()).expect("lint.toml parses");
    let (violations, _) = sparsedist_lint::check_source(
        "crates/core/src/schemes/pipeline.rs",
        &fixture("bad_c002.rs"),
        &cfg,
    );
    let got: Vec<(usize, &str)> = violations.iter().map(|v| (v.line, v.rule)).collect();
    assert_eq!(got, vec![(4, "C002"), (9, "C002"), (17, "C002")]);
    let (engine, _) = sparsedist_lint::check_source(
        "crates/multicomputer/src/engine.rs",
        &fixture("bad_c002.rs"),
        &cfg,
    );
    assert!(engine.iter().all(|v| v.rule != "C002"), "{engine:?}");
    let (seam, _) = sparsedist_lint::check_source(
        "crates/multicomputer/src/exec.rs",
        &fixture("bad_c005.rs"),
        &cfg,
    );
    assert!(seam.iter().all(|v| v.rule != "C005"), "{seam:?}");
}

#[test]
fn c_suppressions_silence_tally_and_misfire() {
    let (violations, tally) = sparsedist_lint::check_source(
        "crates/core/src/schemes/fixture.rs",
        &fixture("suppressed_c.rs"),
        &Config::default(),
    );
    let got: Vec<(usize, &str)> = violations.iter().map(|v| (v.line, v.rule)).collect();
    assert_eq!(got, vec![(11, "LINT"), (12, "C002")]);
    assert_eq!(tally.get("C002"), Some(&1));
}

#[test]
fn s003_pins_forbid_unsafe_code_in_the_unsafe_free_crate_roots() {
    // The bad fixture fires at line 1…
    assert_eq!(
        check("crates/gen/src/lib.rs", "bad_s003.rs"),
        vec![(1, "S003")]
    );
    // …and it stays out of scope for crates that do hold unsafe code.
    assert_eq!(check("crates/core/src/lib.rs", "bad_s003.rs"), vec![]);
    // The real crate roots all carry the attribute (S003-clean).
    let root = workspace_root();
    for rel in [
        "crates/lint/src/lib.rs",
        "crates/lint/src/main.rs",
        "crates/gen/src/lib.rs",
        "crates/cli/src/lib.rs",
        "crates/cli/src/main.rs",
    ] {
        let src = std::fs::read_to_string(root.join(rel)).expect("crate root readable");
        assert!(
            src.contains("#![forbid(unsafe_code)]"),
            "{rel} lost its #![forbid(unsafe_code)]"
        );
        let (v, _) = sparsedist_lint::check_source(rel, &src, &Config::default());
        assert!(v.iter().all(|v| v.rule != "S003"), "{rel}: {v:?}");
    }
}

#[test]
fn suppressions_silence_tally_and_misfire() {
    let (violations, tally) = sparsedist_lint::check_source(
        "crates/core/src/fixture.rs",
        &fixture("suppressed.rs"),
        &Config::default(),
    );
    let got: Vec<(usize, &str)> = violations.iter().map(|v| (v.line, v.rule)).collect();
    // The justified cast at line 6 is silent; the reasonless suppression
    // is itself a violation and silences nothing; the unknown rule is
    // reported where it was written.
    assert_eq!(got, vec![(10, "LINT"), (11, "W002"), (15, "LINT")]);
    assert_eq!(tally.get("W002"), Some(&1));
}

#[test]
fn real_workspace_is_clean() {
    let root = workspace_root();
    let cfg = sparsedist_lint::load_config(&root).expect("lint.toml parses");
    let report = sparsedist_lint::run(&root, &cfg).expect("workspace walk succeeds");
    assert!(
        report.files_checked > 50,
        "walker found only {} files",
        report.files_checked
    );
    let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        report.is_clean(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn workspace_suppressions_all_carry_reasons() {
    // is_clean() above already implies this (reasonless suppressions are
    // LINT violations), but assert the tally is non-trivial so the
    // suppression machinery is demonstrably exercised by the real tree.
    let root = workspace_root();
    let cfg = sparsedist_lint::load_config(&root).expect("lint.toml parses");
    let report = sparsedist_lint::run(&root, &cfg).expect("workspace walk succeeds");
    assert!(report.suppression_total() > 0);
    assert!(
        report.suppressions.contains_key("E002"),
        "{:?}",
        report.suppressions
    );
}

#[test]
fn vendor_audit_is_clean() {
    let findings = sparsedist_lint::vendor::audit(&workspace_root()).expect("audit runs");
    let rendered: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        findings.is_empty(),
        "vendor audit findings:\n{}",
        rendered.join("\n")
    );
}
