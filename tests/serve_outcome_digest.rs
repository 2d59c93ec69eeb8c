//! Pins every field of every outcome record a serve run returns. An FNV-1a
//! digest folds each record's fields, each widened to `u64` — id, kind,
//! arrival, queue delay, service, latency, shard, batch size, generation,
//! rung (`u64::MAX` for none) and status — over every reference-matrix leg
//! (the closed-loop `drift` leg included) at seeds 11 and 13, and over the
//! stress scenario cut to 0.1 s. A change to how a record is laid out or
//! filled must leave each leg's digest as it is.

use netcut_repro::serve::{
    reference_matrix, stress_scenario, RequestKind, RequestOutcome, Scenario, ScenarioConfig,
};

/// FNV-1a over 64-bit words.
fn fold(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Every field of `o`, widened to `u64`, in declaration order of the
/// record as it was first pinned.
fn fields(o: &RequestOutcome) -> [u64; 11] {
    [
        o.id,
        match o.kind {
            RequestKind::Visual => 0,
            RequestKind::Emg => 1,
        },
        o.arrival_us,
        o.queue_delay_us,
        o.service_us,
        o.latency_us(),
        u64::from(o.shard),
        u64::from(o.batch_size),
        u64::from(o.generation),
        o.rung.map_or(u64::MAX, u64::from),
        o.status as u64,
    ]
}

/// The digest of `cfg`'s outcome records, and how many there are.
fn digest(cfg: ScenarioConfig) -> (u64, usize) {
    let (outcomes, _) = Scenario::build(cfg).run_full();
    let digest = outcomes
        .iter()
        .flat_map(fields)
        .fold(0xcbf2_9ce4_8422_2325, fold);
    (digest, outcomes.len())
}

#[test]
fn every_outcome_field_keeps_its_value() {
    let mut legs: Vec<(String, ScenarioConfig)> = Vec::new();
    for seed in [11u64, 13] {
        for (leg, cfg) in reference_matrix() {
            legs.push((format!("{leg}@{seed}"), ScenarioConfig { seed, ..cfg }));
        }
    }
    let (_, stress) = stress_scenario();
    legs.push((
        "stress@0.1s".to_owned(),
        ScenarioConfig {
            duration_us: 100_000,
            ..stress
        },
    ));
    let pinned: [(&str, u64, usize); 15] = [
        ("baseline@11", 0xa612_c0af_87c0_d6cc, 9_831),
        ("no_degrade@11", 0x67a7_b618_e54b_51eb, 9_831),
        ("batch@11", 0x61bf_d7c4_e139_d65d, 9_831),
        ("shard@11", 0x89ad_8079_dba9_7034, 9_831),
        ("batch_shard@11", 0xe5a2_de58_53d9_8495, 9_831),
        ("drift_norecal@11", 0x76db_7d27_b51b_02e5, 9_831),
        ("drift@11", 0x0ae0_33af_1ea7_b0bf, 9_831),
        ("baseline@13", 0xa82b_930d_7a91_e54d, 10_017),
        ("no_degrade@13", 0x40c1_b2ef_b798_7a87, 10_017),
        ("batch@13", 0x8193_9501_118a_fb5d, 10_017),
        ("shard@13", 0xaaee_b854_d00b_d8c0, 10_017),
        ("batch_shard@13", 0xe112_b915_930c_a3f8, 10_017),
        ("drift_norecal@13", 0x086e_a731_db70_20e1, 10_017),
        ("drift@13", 0x6f09_2bce_634e_6383, 10_017),
        ("stress@0.1s", 0x16fc_569f_e39f_06d4, 20_468),
    ];
    assert_eq!(legs.len(), pinned.len());
    for ((leg, cfg), (name, want, count)) in legs.into_iter().zip(pinned) {
        assert_eq!(leg, name);
        let (got, n) = digest(cfg);
        assert_eq!(n, count, "{leg}: outcome count");
        assert_eq!(got, want, "{leg}: outcome digest 0x{got:016x}");
    }
}
