//! The adaptive noise plane, end to end: online probe estimates converge
//! to the true flip rate (and agree with the offline Section 6 fit),
//! probe-off sessions are bit-identical to sessions without the layer,
//! probes are billed but never perturb answers, the misspecification
//! guard fails typed with spend preserved, and `AdaptPolicy::Escalate`
//! recovers the completions (and the answer quality) that fixed-rate
//! sessions lose when the real noise is twice the configured one.

use noisy_oracle::eval::noise_fit::{fit_noise, FittedModel};
use noisy_oracle::metric::EuclideanMetric;
use noisy_oracle::oracle::crowd::AccuracyProfile;
use noisy_oracle::oracle::probabilistic::ProbQuadOracle;
use noisy_oracle::{AdaptPolicy, NcoError, Noise, Outcome, RunReport, Session, Task};

const SEEDS: u64 = 20;

fn grid(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![(i % 17) as f64, (i * 7 % 23) as f64, (i * 13 % 29) as f64])
        .collect()
}

/// The report fields a probe layer is allowed to change (`queries`,
/// `rounds`, `probes`, `observed_flip_rate`) plus the ones it must not —
/// one comparable bundle for bit-identity pins.
fn fingerprint(o: &Outcome) -> (Option<usize>, u64, u64, Option<u64>, u32) {
    let RunReport {
        queries,
        rounds,
        probes,
        adaptations,
        ..
    } = o.report;
    (o.answer.item(), queries, rounds, probes, adaptations)
}

// ---------------------------------------------------------------------
// Estimator correctness.
// ---------------------------------------------------------------------

#[test]
fn probe_estimates_converge_to_the_configured_rate() {
    let values: Vec<f64> = (1..=400).map(f64::from).collect();
    let p = 0.30;
    let mut sum = 0.0;
    for seed in 0..SEEDS {
        let session = Session::builder()
            .values(values.clone())
            .noise(Noise::Probabilistic { p, seed })
            .probe_noise(0.10)
            .seed(seed)
            .build()
            .unwrap();
        let o = session.run(Task::Max).unwrap();
        let est = o
            .report
            .observed_flip_rate
            .expect("probing fills the estimate");
        let probes = o.report.probes.expect("probing bills probes");
        assert!(probes > 0 && probes % 3 == 0, "three asks per triangle");
        assert!(o.report.queries > probes, "probes ride a real query stream");
        assert!(
            (est - p).abs() < 0.06,
            "seed {seed}: estimate {est:.4} strayed from p = {p} ({probes} probes)"
        );
        sum += est;
    }
    let mean = sum / SEEDS as f64;
    assert!(
        (mean - p).abs() < 0.015,
        "mean estimate {mean:.4} is biased away from p = {p}"
    );
}

#[test]
fn probe_estimates_track_the_crowd_effective_rate() {
    // amazon-like accuracy is flat in the distance ratio, so a
    // majority-of-3 crowd flips at ~0.077 regardless of what is asked:
    // that effective rate — not the single-worker one — is what the
    // triangles must see.
    let points = grid(96);
    let effective = 0.077;
    let mut sum = 0.0;
    for seed in 0..SEEDS {
        let session = Session::builder()
            .points(&points)
            .noise(Noise::Crowd {
                profile: AccuracyProfile::amazon_like(),
                workers: 3,
                seed,
            })
            .probe_noise(0.15)
            .seed(seed)
            .build()
            .unwrap();
        let o = session.run(Task::KCenter { k: 5 }).unwrap();
        let est = o
            .report
            .observed_flip_rate
            .expect("quad probing fills the estimate");
        assert!(
            (0.05..=0.11).contains(&est),
            "seed {seed}: crowd estimate {est:.4} far from effective rate {effective}"
        );
        sum += est;
    }
    let mean = sum / SEEDS as f64;
    assert!(
        (mean - effective).abs() < 0.015,
        "mean crowd estimate {mean:.4} vs effective {effective}"
    );
}

#[test]
fn online_estimate_agrees_with_the_offline_fit() {
    // The Section 6 offline fit and the live probe plane measure the
    // same quantity two different ways; on the same persistent noise
    // they must land on the same rate.
    let points = grid(80);
    let p = 0.20;
    let metric = EuclideanMetric::from_points(&points);
    let mut oracle = ProbQuadOracle::new(metric.clone(), p, 5);
    let offline = match fit_noise(&metric, &mut oracle, 30_000, 5).model {
        FittedModel::Probabilistic { p_hat } => p_hat,
        other => panic!("persistent flat noise must fit probabilistic, got {other:?}"),
    };

    let session = Session::builder()
        .points(&points)
        .noise(Noise::Probabilistic { p, seed: 5 })
        .probe_noise(0.20)
        .seed(5)
        .build()
        .unwrap();
    let online = session
        .run(Task::KCenter { k: 4 })
        .unwrap()
        .report
        .observed_flip_rate
        .unwrap();

    assert!((offline - p).abs() < 0.05, "offline fit {offline:.4}");
    assert!((online - p).abs() < 0.05, "online estimate {online:.4}");
    assert!(
        (online - offline).abs() < 0.05,
        "online {online:.4} and offline {offline:.4} disagree"
    );
}

// ---------------------------------------------------------------------
// Bit-identity and billing.
// ---------------------------------------------------------------------

#[test]
fn probe_off_sessions_are_bit_identical_to_unprobed_sessions() {
    // `probe_noise(0.0)` must be indistinguishable from never calling
    // it: same answer, same meters, no estimate, no probe bill.
    let values: Vec<f64> = (0..200).map(|i| ((i * 53) % 200) as f64).collect();
    for seed in 0..SEEDS {
        let base = Session::builder()
            .values(values.clone())
            .noise(Noise::Probabilistic { p: 0.25, seed })
            .seed(seed)
            .build()
            .unwrap();
        let off = Session::builder()
            .values(values.clone())
            .noise(Noise::Probabilistic { p: 0.25, seed })
            .probe_noise(0.0)
            .seed(seed)
            .build()
            .unwrap();
        let b = base.run(Task::Max).unwrap();
        let o = off.run(Task::Max).unwrap();
        assert_eq!(fingerprint(&b), fingerprint(&o), "seed {seed}");
        assert_eq!(b.report.observed_flip_rate, None);
        assert_eq!(o.report.observed_flip_rate, None);
    }
}

#[test]
fn probes_are_billed_but_never_perturb_answers() {
    // Persistent noise: extra probe queries cannot change any real
    // answer, so a probed run returns the unprobed answer and pays for
    // its triangles on top. Probing is also deterministic — the same
    // configuration replays to the same report.
    let points = grid(64);
    for seed in 0..SEEDS {
        let build = |rate: f64| {
            let mut b = Session::builder()
                .points(&points)
                .noise(Noise::Probabilistic { p: 0.2, seed })
                .seed(seed);
            if rate > 0.0 {
                b = b.probe_noise(rate);
            }
            b.build().unwrap()
        };
        let plain = build(0.0).run(Task::Farthest { q: 1 }).unwrap();
        let probed = build(0.25).run(Task::Farthest { q: 1 }).unwrap();
        assert_eq!(
            plain.answer, probed.answer,
            "seed {seed}: probes changed the answer"
        );
        let probes = probed.report.probes.unwrap();
        assert!(probes > 0, "seed {seed}: rate 0.25 must fire");
        assert!(
            probed.report.queries > plain.report.queries
                && probed.report.queries <= plain.report.queries + probes,
            "seed {seed}: probe bill out of range ({} vs {} + {probes})",
            probed.report.queries,
            plain.report.queries,
        );

        let replay = build(0.25).run(Task::Farthest { q: 1 }).unwrap();
        assert_eq!(fingerprint(&probed), fingerprint(&replay));
        assert_eq!(
            probed.report.observed_flip_rate,
            replay.report.observed_flip_rate
        );
    }
}

// ---------------------------------------------------------------------
// The guard and the recovery.
// ---------------------------------------------------------------------

#[test]
fn misspecification_fails_typed_with_spend_preserved() {
    // True rate twice the assumed one: with ~2000 triangles the CI
    // lower bound clears 0.15 on every seed, so every guarded session
    // fails typed — and keeps its bill.
    let values: Vec<f64> = (1..=256).map(f64::from).collect();
    for seed in 0..SEEDS {
        let session = Session::builder()
            .values(values.clone())
            .noise(Noise::Probabilistic { p: 0.30, seed })
            .assume_noise_rate(0.15)
            .probe_noise(0.10)
            .seed(seed)
            .build()
            .unwrap();
        match session.run(Task::Max) {
            Err(NcoError::NoiseMisspecified {
                assumed,
                observed,
                probes,
                report,
            }) => {
                assert_eq!(assumed, 0.15);
                assert!(observed > 0.2, "seed {seed}: observed {observed:.4}");
                assert!(probes > 0 && probes % 3 == 0);
                assert!(report.queries > probes, "spend preserved beyond the probes");
                assert_eq!(report.probes, Some(probes));
                assert_eq!(report.adaptations, 0);
            }
            other => panic!("seed {seed}: expected NoiseMisspecified, got {other:?}"),
        }
    }

    // `AdaptPolicy::FailFast` is the same guard, requested explicitly.
    let session = Session::builder()
        .values(values)
        .noise(Noise::Probabilistic { p: 0.30, seed: 0 })
        .assume_noise_rate(0.15)
        .probe_noise(0.10)
        .adapt_noise(AdaptPolicy::FailFast)
        .seed(0)
        .build()
        .unwrap();
    assert!(matches!(
        session.run(Task::Max),
        Err(NcoError::NoiseMisspecified { .. })
    ));
}

#[test]
fn adaptive_sessions_recover_what_fixed_sessions_lose() {
    // The headline pin: real flip rate 0.40, configured 0.20. Guarded
    // fixed sessions complete 0/20 (all fail typed); adaptive sessions
    // complete 20/20 with exactly one re-derivation each — and their
    // answers are measurably better than the silently-misspecified
    // fixed sessions that never probed.
    let n = 256usize;
    let values: Vec<f64> = (1..=n as u32).map(f64::from).collect();
    let p = 0.40;
    let assumed = 0.20;
    let mk = |seed: u64, probe: bool, adapt: bool| {
        let mut b = Session::builder()
            .values(values.clone())
            .noise(Noise::Probabilistic { p, seed })
            .assume_noise_rate(assumed)
            .seed(seed);
        if probe {
            b = b.probe_noise(0.10);
        }
        if adapt {
            b = b.adapt_noise(AdaptPolicy::Escalate);
        }
        b.build().unwrap()
    };

    let mut guarded_completions = 0u32;
    let mut fixed_deficit = 0usize;
    let mut adaptive_deficit = 0usize;
    for seed in 0..SEEDS {
        // Guarded but not adaptive: the guard takes the answer away.
        if mk(seed, true, false).run(Task::Max).is_ok() {
            guarded_completions += 1;
        }

        // Silently misspecified: completes, but on parameters derived
        // for half the real rate.
        let fixed = mk(seed, false, false).run(Task::Max).unwrap();
        fixed_deficit += n - 1 - fixed.answer.item().unwrap();

        // Adaptive: probes, detects, re-derives, re-runs, completes.
        let adaptive = mk(seed, true, true).run(Task::Max).unwrap();
        assert_eq!(adaptive.report.adaptations, 1, "seed {seed}");
        assert!(adaptive.report.probes.unwrap() > 0);
        adaptive_deficit += n - 1 - adaptive.answer.item().unwrap();
    }

    assert_eq!(
        guarded_completions, 0,
        "at 2x the assumed rate every guarded fixed session must fail typed"
    );
    assert!(
        adaptive_deficit * 4 < fixed_deficit * 3,
        "adaptation must claw back answer quality: adaptive rank deficit \
         {adaptive_deficit} vs fixed {fixed_deficit} over {SEEDS} seeds"
    );
}

// ---------------------------------------------------------------------
// The serving plane's adaptive surface.
// ---------------------------------------------------------------------

#[test]
fn serving_plane_meters_probes_and_adaptations() {
    use noisy_oracle::{Request, Server};

    let values: Vec<f64> = (1..=128).map(f64::from).collect();
    let adaptive_template = Session::builder()
        .values(values.clone())
        .noise(Noise::Probabilistic { p: 0.40, seed: 9 })
        .assume_noise_rate(0.20)
        .probe_noise(0.10)
        .adapt_noise(AdaptPolicy::Escalate)
        .build()
        .unwrap();
    let server = Server::builder(adaptive_template)
        .workers(2)
        .build()
        .unwrap();
    let handles: Vec<_> = (0..3)
        .map(|seed| {
            server
                .submit(Request {
                    task: Task::Max,
                    seed,
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        let o = h.join().expect("adaptive requests complete");
        assert_eq!(o.report.adaptations, 1);
        assert!(o.report.probes.unwrap() > 0);
        assert!(o.report.observed_flip_rate.unwrap() > 0.3);
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, 3);
    assert!(stats.probes > 0, "probe bills aggregate across requests");
    assert_eq!(stats.adaptations, 3);
    assert_eq!(stats.misspecifications, 0);

    // The same template without the adaptive policy: the guard fires
    // per request and the server counts it.
    let guarded_template = Session::builder()
        .values(values)
        .noise(Noise::Probabilistic { p: 0.40, seed: 9 })
        .assume_noise_rate(0.20)
        .probe_noise(0.10)
        .build()
        .unwrap();
    let server = Server::builder(guarded_template)
        .workers(2)
        .build()
        .unwrap();
    let handles: Vec<_> = (0..2)
        .map(|seed| {
            server
                .submit(Request {
                    task: Task::Max,
                    seed,
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        match h.join() {
            Err(NcoError::NoiseMisspecified { assumed, .. }) => assert_eq!(assumed, 0.20),
            other => panic!("expected the guard, got {other:?}"),
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.misspecifications, 2);
    assert_eq!(stats.adaptations, 0);
}
