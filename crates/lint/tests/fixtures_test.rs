//! End-to-end fixture tests for the `inflow-lint` binary.
//!
//! Each lint ID gets a violation file under `tests/fixtures/`; the tests
//! copy it into a synthetic workspace laid out so the path-scoped rules
//! apply (`crates/service/src/…` for IL002, a `server.rs` for IL003,
//! `crates/core/src/…` for IL005), run the real binary against it, and
//! assert the exact diagnostics, the exit code, allowlist suppression
//! and the JSON output shape.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("reading {}: {e}", p.display()))
}

/// A throwaway workspace root, deleted on drop.
struct TempRepo {
    root: PathBuf,
}

impl TempRepo {
    fn new(tag: &str) -> TempRepo {
        let root =
            std::env::temp_dir().join(format!("inflow-lint-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("creating temp repo");
        TempRepo { root }
    }

    fn write(&self, rel: &str, contents: &str) -> &Self {
        let p = self.root.join(rel);
        fs::create_dir_all(p.parent().expect("rel path has a parent")).expect("mkdir");
        fs::write(p, contents).expect("writing fixture");
        self
    }
}

impl Drop for TempRepo {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

fn lint(root: &Path, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_inflow-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawning inflow-lint");
    Run {
        code: out.status.code().unwrap_or(-1),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

#[test]
fn il001_partial_cmp_is_diagnosed() {
    let repo = TempRepo::new("il001");
    repo.write("crates/core/src/il001.rs", &fixture("il001.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(
        r.stdout.contains(
            "crates/core/src/il001.rs:4: IL001: NaN-unsafe float ordering via `partial_cmp`"
        ),
        "missing IL001 diagnostic:\n{}",
        r.stdout
    );
    assert!(r.stdout.contains("fix: use f64::total_cmp"), "missing hint:\n{}", r.stdout);
    assert!(r
        .stdout
        .contains("inflow-lint: 1 finding(s), 0 suppressed, 0 baselined, 1 files scanned"));
}

#[test]
fn il002_panics_in_serving_path_are_diagnosed() {
    let repo = TempRepo::new("il002");
    repo.write("crates/service/src/il002.rs", &fixture("il002.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(
        r.stdout.contains(
            "crates/service/src/il002.rs:4: IL002: unchecked indexing can panic on out-of-bounds"
        ),
        "missing indexing diagnostic:\n{}",
        r.stdout
    );
    assert!(
        r.stdout.contains(
            "crates/service/src/il002.rs:8: IL002: possible panic: `.unwrap()` in a durable/serving path"
        ),
        "missing unwrap diagnostic:\n{}",
        r.stdout
    );
    assert!(r.stdout.contains("inflow-lint: 2 finding(s),"));
}

#[test]
fn il002_does_not_apply_outside_its_scope() {
    let repo = TempRepo::new("il002-scope");
    // The same panicky code in a batch-analytics crate is fine: IL002 is
    // scoped to the serving layer and the durable store.
    repo.write("crates/core/src/il002.rs", &fixture("il002.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 0, "stdout:\n{}", r.stdout);
    assert!(r.stdout.contains("inflow-lint: 0 finding(s),"));
}

#[test]
fn il003_guard_across_io_is_diagnosed() {
    let repo = TempRepo::new("il003");
    repo.write("crates/service/src/server.rs", &fixture("il003.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(
        r.stdout.contains(
            "crates/service/src/server.rs:11: IL003: blocking I/O `write_all()` while mutex guard `guard` is live"
        ),
        "missing IL003 diagnostic:\n{}",
        r.stdout
    );
}

#[test]
fn il004_magic_and_raw_parse_are_diagnosed() {
    let repo = TempRepo::new("il004");
    repo.write("crates/core/src/il004.rs", &fixture("il004.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(
        r.stdout.contains(
            "crates/core/src/il004.rs:4: IL004: format magic literal duplicated outside its const definition"
        ),
        "missing magic diagnostic:\n{}",
        r.stdout
    );
    assert!(
        r.stdout.contains(
            "crates/core/src/il004.rs:7: IL004: raw little-endian parse outside the framing module"
        ),
        "missing from_le_bytes diagnostic:\n{}",
        r.stdout
    );
}

#[test]
fn il005_unmeasured_entry_point_is_diagnosed() {
    let repo = TempRepo::new("il005");
    repo.write("crates/core/src/il005.rs", &fixture("il005.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(
        r.stdout.contains(
            "crates/core/src/il005.rs:5: IL005: query entry point `unmeasured_topk` records no span or counter"
        ),
        "missing IL005 diagnostic:\n{}",
        r.stdout
    );
}

#[test]
fn il005_recording_through_a_callee_passes() {
    let repo = TempRepo::new("il005-ok");
    repo.write(
        "crates/core/src/il005_ok.rs",
        "pub struct FlowAnalytics;\n\
         impl FlowAnalytics {\n\
             fn recorder(&self) -> u32 { 0 }\n\
         }\n\
         fn observed(fa: &FlowAnalytics) -> u32 {\n\
             fa.recorder()\n\
         }\n\
         pub fn measured_topk(fa: &FlowAnalytics) -> u32 {\n\
             observed(fa)\n\
         }\n",
    );
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 0, "stdout:\n{}", r.stdout);
}

#[test]
fn il005_unrecorded_service_handler_is_diagnosed() {
    let repo = TempRepo::new("il005-service");
    repo.write("crates/service/src/il005_service.rs", &fixture("il005_service.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(
        r.stdout.contains(
            "crates/service/src/il005_service.rs:8: IL005: protocol handler `handle_ping` records nothing into ServiceMetrics"
        ),
        "missing IL005 service diagnostic:\n{}",
        r.stdout
    );
    // handle_metrics records directly, handle_trace through a helper:
    // exactly one finding.
    assert!(r.stdout.contains("inflow-lint: 1 finding(s),"), "stdout:\n{}", r.stdout);
}

#[test]
fn il005_subkind_without_counter_is_diagnosed() {
    let repo = TempRepo::new("il005-subkind");
    repo.write("crates/service/src/il005_subkind.rs", &fixture("il005_subkind.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(
        r.stdout.contains(
            "crates/service/src/il005_subkind.rs:8: IL005: subscription kind `Ghost` has no \
             per-kind counter `ServeGhostSubscriptions` referenced in the service crate"
        ),
        "missing IL005 subkind diagnostic:\n{}",
        r.stdout
    );
    // Snapshot and Interval are covered: exactly one finding.
    assert!(r.stdout.contains("inflow-lint: 1 finding(s),"), "stdout:\n{}", r.stdout);
}

#[test]
fn il005_subkind_counter_casing_is_free() {
    // `LongVisit` is covered by `ServeLongvisitSubscriptions`: the
    // variant-to-counter match is case-insensitive, mirroring the
    // workspace's snake_case-derived counter names.
    let repo = TempRepo::new("il005-subkind-ok");
    repo.write(
        "crates/service/src/kinds.rs",
        "pub enum SubKind {\n\
             LongVisit { ts: f64, te: f64, d: f64 },\n\
         }\n\
         pub enum Counter {\n\
             ServeLongvisitSubscriptions,\n\
         }\n\
         pub fn kind_counter(_kind: &SubKind) -> Counter {\n\
             Counter::ServeLongvisitSubscriptions\n\
         }\n",
    );
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 0, "stdout:\n{}", r.stdout);
}

#[test]
fn il005_handlers_outside_service_crate_are_exempt() {
    let repo = TempRepo::new("il005-service-scope");
    repo.write("crates/core/src/il005_service.rs", &fixture("il005_service.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 0, "stdout:\n{}", r.stdout);
}

#[test]
fn allowlist_suppresses_and_reports() {
    let repo = TempRepo::new("allow");
    repo.write("crates/core/src/il001.rs", &fixture("il001.rs"));
    repo.write(
        "lint.allow",
        "IL001 crates/core/src/il001.rs:4 reason=\"fixture: demonstrates suppression\"\n",
    );
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 0, "stdout:\n{}\nstderr:\n{}", r.stdout, r.stderr);
    assert!(r
        .stdout
        .contains("inflow-lint: 0 finding(s), 1 suppressed, 0 baselined, 1 files scanned"));
}

#[test]
fn allowlist_wrong_line_does_not_suppress() {
    let repo = TempRepo::new("allow-line");
    repo.write("crates/core/src/il001.rs", &fixture("il001.rs"));
    repo.write("lint.allow", "IL001 crates/core/src/il001.rs:99 reason=\"stale pin\"\n");
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(r.stderr.contains("unused lint.allow entry"), "stderr:\n{}", r.stderr);
}

#[test]
fn malformed_allowlist_is_a_hard_error() {
    let repo = TempRepo::new("allow-bad");
    repo.write("crates/core/src/clean.rs", "pub fn ok() {}\n");
    repo.write("lint.allow", "IL001 some/path.rs\n"); // no reason
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 2, "stderr:\n{}", r.stderr);
    assert!(r.stderr.contains("reason"), "stderr:\n{}", r.stderr);
}

#[test]
fn unused_allowlist_entry_warns_but_passes() {
    let repo = TempRepo::new("allow-unused");
    repo.write("crates/core/src/clean.rs", "pub fn ok() {}\n");
    repo.write("lint.allow", "IL001 crates/core/src/gone.rs reason=\"file was deleted\"\n");
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 0, "stdout:\n{}", r.stdout);
    assert!(r.stderr.contains("unused lint.allow entry"), "stderr:\n{}", r.stderr);
}

#[test]
fn json_output_carries_the_finding() {
    let repo = TempRepo::new("json");
    repo.write("crates/core/src/il001.rs", &fixture("il001.rs"));
    let r = lint(&repo.root, &["--json"]);
    assert_eq!(r.code, 1);
    for needle in [
        "{\"schema\":2,\"findings\":[",
        "\"lint\":\"IL001\"",
        "\"path\":\"crates/core/src/il001.rs\"",
        "\"line\":4",
        "\"suppressed\":0",
        "\"files\":1}",
    ] {
        assert!(r.stdout.contains(needle), "missing {needle} in:\n{}", r.stdout);
    }
}

#[test]
fn clean_workspace_exits_zero() {
    let repo = TempRepo::new("clean");
    repo.write("crates/core/src/clean.rs", "pub fn ok() -> u32 { 1 }\n");
    repo.write("src/main.rs", "fn main() {}\n");
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 0, "stdout:\n{}", r.stdout);
    assert!(r
        .stdout
        .contains("inflow-lint: 0 finding(s), 0 suppressed, 0 baselined, 2 files scanned"));
}

#[test]
fn il002_multi_hop_chain_is_witnessed() {
    let repo = TempRepo::new("il002-chain");
    repo.write("crates/tracking/src/store/depth.rs", &fixture("il002_chain_root.rs"));
    repo.write("crates/core/src/fold.rs", &fixture("il002_chain_helpers.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(
        r.stdout.contains(
            "crates/core/src/fold.rs:8: IL002: possible panic: `.unwrap()` reachable from a \
             durable/serving path via rollup -> fold_all -> pick_first \
             (rooted at crates/tracking/src/store/depth.rs:4)"
        ),
        "missing multi-hop IL002 chain:\n{}",
        r.stdout
    );
}

#[test]
fn il003_multi_hop_chain_is_witnessed() {
    let repo = TempRepo::new("il003-chain");
    repo.write("crates/service/src/server.rs", &fixture("il003_chain_server.rs"));
    repo.write("crates/service/src/relay.rs", &fixture("il003_chain_io.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(
        r.stdout.contains(
            "crates/service/src/server.rs:6: IL003: blocking I/O `write_all()` reachable \
             while mutex guard `state` is live, via flush -> relay -> disk"
        ),
        "missing multi-hop IL003 chain:\n{}",
        r.stdout
    );
}

#[test]
fn il006_lock_order_cycle_is_diagnosed() {
    let repo = TempRepo::new("il006");
    repo.write("crates/service/src/locks.rs", &fixture("il006.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(r.stdout.contains("IL006: lock-order cycle"), "missing IL006:\n{}", r.stdout);
    // Both opposing edges are witnessed, each with its cross-call chain.
    assert!(
        r.stdout.contains("via record -> bump") && r.stdout.contains("via report -> label"),
        "missing per-edge witnesses:\n{}",
        r.stdout
    );
}

#[test]
fn il006_consistent_lock_order_passes() {
    let repo = TempRepo::new("il006-ok");
    repo.write("crates/service/src/locks.rs", &fixture("il006_clean.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 0, "stdout:\n{}", r.stdout);
}

#[test]
fn il008_unchecked_wire_cast_is_diagnosed() {
    let repo = TempRepo::new("il008");
    repo.write("crates/tracking/src/store/decode.rs", &fixture("il008.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(
        r.stdout.contains(
            "IL008: unchecked arithmetic/cast on wire-derived `record count` in the same \
             statement as the raw read"
        ),
        "missing IL008 diagnostic:\n{}",
        r.stdout
    );
    assert!(r.stdout.contains("fix: read counts via Cursor::count"), "missing hint:\n{}", r.stdout);
}

#[test]
fn il008_count_accessor_passes() {
    let repo = TempRepo::new("il008-ok");
    repo.write("crates/tracking/src/store/decode.rs", &fixture("il008_clean.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 0, "stdout:\n{}", r.stdout);
}

#[test]
fn il009_impure_delta_loop_is_diagnosed() {
    let repo = TempRepo::new("il009");
    repo.write("crates/service/src/engine.rs", &fixture("il009.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(
        r.stdout.contains("IL009: delta-loop impurity: lock acquisition reachable"),
        "missing lock impurity:\n{}",
        r.stdout
    );
    assert!(
        r.stdout.contains("IL009: delta-loop impurity: blocking I/O reachable")
            && r.stdout.contains("Engine::spill"),
        "missing I/O impurity with chain:\n{}",
        r.stdout
    );
    assert!(
        r.stdout.contains("IL009: delta-loop impurity: recursion cycle")
            && r.stdout.contains("Engine::walk"),
        "missing recursion cycle:\n{}",
        r.stdout
    );
}

#[test]
fn il009_pure_delta_loop_passes() {
    let repo = TempRepo::new("il009-ok");
    repo.write("crates/service/src/engine.rs", &fixture("il009_clean.rs"));
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 0, "stdout:\n{}", r.stdout);
}

#[test]
fn baseline_suppresses_known_findings() {
    let repo = TempRepo::new("baseline");
    repo.write("crates/core/src/il001.rs", &fixture("il001.rs"));
    let first = lint(&repo.root, &["--json"]);
    assert_eq!(first.code, 1);
    repo.write("lint-baseline.json", &first.stdout);
    let second = lint(&repo.root, &["--baseline"]);
    // --baseline requires a file argument.
    assert_eq!(second.code, 2, "stderr:\n{}", second.stderr);
    let p = repo.root.join("lint-baseline.json");
    let third = lint(&repo.root, &["--baseline", p.to_str().unwrap()]);
    assert_eq!(third.code, 0, "stdout:\n{}\nstderr:\n{}", third.stdout, third.stderr);
    assert!(
        third
            .stdout
            .contains("inflow-lint: 0 finding(s), 0 suppressed, 1 baselined, 1 files scanned"),
        "stdout:\n{}",
        third.stdout
    );
}

#[test]
fn baseline_does_not_mask_new_findings() {
    let repo = TempRepo::new("baseline-new");
    repo.write("crates/core/src/il001.rs", &fixture("il001.rs"));
    let first = lint(&repo.root, &["--json"]);
    repo.write("lint-baseline.json", &first.stdout);
    // A new violation in a second file is NOT in the baseline.
    repo.write("crates/core/src/il004.rs", &fixture("il004.rs"));
    let p = repo.root.join("lint-baseline.json");
    let r = lint(&repo.root, &["--baseline", p.to_str().unwrap()]);
    assert_eq!(r.code, 1, "stdout:\n{}", r.stdout);
    assert!(r.stdout.contains("IL004"), "new finding masked:\n{}", r.stdout);
    assert!(!r.stdout.contains("IL001:"), "baselined finding re-reported:\n{}", r.stdout);
}

#[test]
fn strict_unused_turns_stale_entries_into_errors() {
    let repo = TempRepo::new("strict-unused");
    repo.write("crates/core/src/clean.rs", "pub fn ok() {}\n");
    repo.write("lint.allow", "IL001 crates/core/src/gone.rs reason=\"file was deleted\"\n");
    let r = lint(&repo.root, &["--strict-unused"]);
    assert_eq!(r.code, 1, "stdout:\n{}\nstderr:\n{}", r.stdout, r.stderr);
    assert!(
        r.stderr.contains("error: unused lint.allow entry"),
        "stale entry not escalated:\n{}",
        r.stderr
    );
}

#[test]
fn test_code_is_exempt_from_the_catalog() {
    let repo = TempRepo::new("test-exempt");
    repo.write(
        "crates/service/src/exempt.rs",
        "#[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn uses_unwrap() {\n\
                 let v: Option<u32> = Some(1);\n\
                 assert_eq!(v.unwrap(), 1);\n\
             }\n\
         }\n",
    );
    let r = lint(&repo.root, &[]);
    assert_eq!(r.code, 0, "stdout:\n{}", r.stdout);
}
