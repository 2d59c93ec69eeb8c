//! Integration tests for the analyzer: the full zoo (plus every blockwise
//! TRN, raw and head-attached) must be clean, and each mutation class must
//! be caught with its documented `NC0xx` code.

use netcut_graph::{zoo, ExitPoint, HeadSpec};
use netcut_verify::mutate::{self, Mutation};
use netcut_verify::{Analyzer, Code, Severity};
use std::collections::BTreeMap;

/// Every zoo architecture and every blockwise TRN — raw, with the HANDS
/// head reattached, and as a multi-exit network with a head at every block
/// boundary — passes the analyzer with zero findings of any severity.
#[test]
fn zoo_and_every_trn_are_clean() {
    let structural = Analyzer::new();
    let with_head = Analyzer::with_expected_head(HeadSpec::default());
    let mut graphs = 0usize;
    for net in zoo::extended_networks() {
        let report = structural.analyze(&net);
        assert_eq!(
            report.summary().total(),
            0,
            "{} is not clean:\n{}",
            net.name(),
            report.render_text()
        );
        graphs += 1;
        let multi = net.with_exit_heads(&HeadSpec::default());
        let report = structural.analyze(&multi);
        assert_eq!(
            report.summary().total(),
            0,
            "{} is not clean:\n{}",
            multi.name(),
            report.render_text()
        );
        graphs += 1;
        for k in 0..net.num_blocks() {
            let trn = net.cut_blocks(k).expect("zoo cutpoints are valid");
            let raw = structural.analyze(&trn);
            assert_eq!(raw.summary().total(), 0, "{}", raw.render_text());
            let headed = trn.clone().with_head(&HeadSpec::default());
            let report = with_head.analyze(&headed);
            assert_eq!(report.summary().total(), 0, "{}", report.render_text());
            // A multi-exit network built over the *trimmed* backbone is
            // exactly what the serve ladder runs; it must verify too.
            let trn_multi = trn.with_exit_heads(&HeadSpec::default());
            let report = structural.analyze(&trn_multi);
            assert_eq!(report.summary().total(), 0, "{}", report.render_text());
            graphs += 3;
        }
    }
    // Ten architectures, dozens of cutpoints: a regression that skipped the
    // loop entirely would still "pass" without this floor.
    assert!(graphs > 100, "only analyzed {graphs} graphs");
}

/// An exit that claims a block past the backbone's last one is NC015's
/// first finding, which no mutation reaches: the analyzer must report it
/// (and must not panic looking the missing block up).
#[test]
fn an_exit_past_the_last_block_is_reported() {
    let multi = zoo::mobilenet_v1(0.25).with_exit_heads(&HeadSpec::default());
    let nb = multi.num_blocks();
    let mut exits = multi.exits().to_vec();
    let deepest = exits.pop().expect("one exit per block");
    exits.push(ExitPoint::new(nb, deepest.head_start(), deepest.output()));
    let report = Analyzer::new().analyze(&multi.with_exit_points(exits));
    let expected = format!("claims block #{nb}, but the network has {nb} blocks");
    assert!(
        report
            .diagnostics()
            .iter()
            .any(|d| d.code == Code::NC015 && d.message.contains(&expected)),
        "no NC015 `{expected}`:\n{}",
        report.render_text()
    );
}

/// Mutation classes whose analyzer output must contain *only* the expected
/// code — a verifier that flags everything as broken passes membership
/// checks but fails these.
fn is_exact(mutation: Mutation) -> bool {
    matches!(
        mutation,
        Mutation::DropEdge
            | Mutation::CorruptShape
            | Mutation::SpliceBlockBoundary
            | Mutation::MismatchHeadClasses
            | Mutation::MismatchExitClasses
            | Mutation::SwapExitOrder
            | Mutation::DuplicateExitBoundary
            | Mutation::IntrudeExitRange
    )
}

/// Every mutation class, applied across the zoo, produces its documented
/// diagnostic code; four classes produce it *exactly*.
#[test]
fn mutation_harness_catches_each_class() {
    let head = HeadSpec::default();
    let structural = Analyzer::new();
    let spec_checked = Analyzer::with_expected_head(head.clone());
    let mut hits: BTreeMap<&'static str, usize> = BTreeMap::new();
    for net in zoo::extended_networks() {
        for mutation in Mutation::all() {
            let expected = mutation.expected_code();
            // The head-spec rule only makes sense on a TRN carrying the
            // HANDS head; the exit-table classes need a multi-exit network;
            // every other class mutates the zoo net directly.
            let (base, analyzer) = if mutation == Mutation::MismatchHeadClasses {
                let k = net.num_blocks() / 2;
                let trn = net.cut_blocks(k).expect("valid cutpoint");
                (trn.with_head(&head), &spec_checked)
            } else if mutation.needs_exit_table() {
                (net.with_exit_heads(&head), &structural)
            } else {
                (net.clone(), &structural)
            };
            let Some(broken) = mutate::apply(&base, mutation) else {
                continue; // no site for this mutation in this network
            };
            *hits.entry(expected.as_str()).or_default() += 1;
            let report = analyzer.analyze(&broken);
            let codes: Vec<Code> = report.diagnostics().iter().map(|d| d.code).collect();
            assert!(
                codes.contains(&expected),
                "{mutation:?} on {} should raise {expected}, got:\n{}",
                net.name(),
                report.render_text()
            );
            if is_exact(mutation) {
                assert!(
                    codes.iter().all(|&c| c == expected),
                    "{mutation:?} on {} should raise only {expected}, got:\n{}",
                    net.name(),
                    report.render_text()
                );
            }
            // Error-severity mutations must fail `is_clean`; the dangling
            // branch from DropEdge is a Warning and must *not* — strict
            // mode, not validate(), is what promotes it.
            if expected.severity() == Severity::Error {
                assert!(!report.is_clean());
                assert!(report.first_error().is_some());
            } else {
                assert!(report.is_clean());
                assert!(report.summary().warnings > 0);
            }
        }
    }
    // Each class must have fired on at least one zoo network.
    for mutation in Mutation::all() {
        let code = mutation.expected_code().as_str();
        assert!(
            hits.get(code).copied().unwrap_or(0) > 0,
            "mutation class for {code} never applied to any zoo network"
        );
    }
}

/// `validate` is the migration shim: `Ok` for clean graphs, first
/// Error-severity diagnostic otherwise, and Warnings do not fail it.
#[test]
fn validate_shim_reports_first_error_only() {
    let net = zoo::mobilenet_v1(0.25);
    netcut_verify::validate(&net).expect("zoo network is valid");

    let broken = mutate::apply(&net, Mutation::CorruptShape).expect("conv exists");
    let err = netcut_verify::validate(&broken).expect_err("corrupt shape must fail");
    assert_eq!(err.code, Code::NC003);
    assert_eq!(err.severity, Severity::Error);

    // A dangling branch is Warning-severity: validate() accepts it.
    let resnet = zoo::resnet50();
    let dangling = mutate::apply(&resnet, Mutation::DropEdge).expect("residual exists");
    netcut_verify::validate(&dangling).expect("warnings do not fail validate()");
}

/// Text and JSON renderings carry the stable vocabulary consumers key on.
#[test]
fn report_renderings_are_stable() {
    let net = zoo::mobilenet_v1(0.25);
    let clean = Analyzer::new().analyze(&net);
    assert_eq!(clean.network(), net.name());
    assert_eq!(clean.fingerprint(), net.structural_fingerprint());
    let text = clean.render_text();
    assert!(text.contains("ok"), "clean text rendering: {text}");

    let broken = mutate::apply(&net, Mutation::CorruptShape).expect("conv exists");
    let report = Analyzer::new().analyze(&broken);
    let text = report.render_text();
    assert!(text.contains("error[NC003]"), "text rendering: {text}");
    assert!(text.contains("error(s)"), "verdict line: {text}");

    let json = report.to_json_lines();
    for line in json.lines() {
        assert!(line.starts_with("{\"v\":1,"), "obs envelope: {line}");
    }
    assert!(json.contains("\"verify.diagnostic\""));
    assert!(json.contains("\"verify.summary\""));
    assert!(json.contains("\"code\":\"NC003\""));
    assert!(json.contains("\"severity\":\"error\""));
    // One line per finding plus the summary line.
    assert_eq!(json.lines().count(), report.diagnostics().len() + 1);
}

/// The analyzer is deterministic: analyzing the same graph twice produces
/// identical diagnostics in identical order.
#[test]
fn analysis_is_deterministic() {
    let net = zoo::mobilenet_v2(1.0);
    let broken = mutate::apply(&net, Mutation::DropEdge).expect("residual exists");
    let a = Analyzer::new().analyze(&broken);
    let b = Analyzer::new().analyze(&broken);
    assert_eq!(a.diagnostics(), b.diagnostics());
    assert_eq!(a.fingerprint(), b.fingerprint());
}
