//! Tests of the stand-in crates under `shims/`, against the types the
//! Servet crates actually send through them. They live here because
//! `cargo test --offline` in this directory runs this package.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::{chacha_block, ChaCha8Rng};
use servet_core::manifest::RunManifest;
use servet_core::profile::MachineProfile;
use servet_core::{run_suite, SimPlatform, SuiteConfig};
use servet_registry::{AdviceOutcome, AdviceQuery, Request, Response, ServerStats, TuneQuery};
use servet_tune::{Strategy, TuneOptions};

fn measured() -> (MachineProfile, RunManifest) {
    let suite = SuiteConfig {
        run_micro: true,
        run_false_sharing: true,
        ..SuiteConfig::small(256 * 1024)
    };
    let (report, manifest) = run_suite(&mut SimPlatform::tiny_cluster().with_seed(9), &suite);
    (report.profile, manifest)
}

/// Words of a byte string, little-endian.
fn words(hex: &str) -> Vec<u32> {
    let bytes: Vec<u8> = (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap())
        .collect();
    bytes
        .chunks(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[test]
fn chacha_block_matches_the_published_vectors() {
    // RFC 7539 §2.3.2: 20 rounds, key 00..1f, counter 1, nonce
    // 00 00 00 09 00 00 00 4a 00 00 00 00.
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    let key: Vec<u8> = (0..32).collect();
    for (word, bytes) in state[4..12].iter_mut().zip(key.chunks(4)) {
        *word = u32::from_le_bytes(bytes.try_into().unwrap());
    }
    state[12..].copy_from_slice(&[1, 0x0900_0000, 0x4a00_0000, 0]);
    assert_eq!(
        chacha_block(&state, 20),
        [
            0xe4e7_f110,
            0x1559_3bd1,
            0x1fdd_0f50,
            0xc471_20a3,
            0xc7f4_d1c7,
            0x0368_c033,
            0x9aaa_2204,
            0x4e6c_d4c3,
            0x4664_82d2,
            0x09aa_9f07,
            0x05d7_c214,
            0xa202_8bd9,
            0xd19c_12b5,
            0xb94e_16de,
            0xe883_d0cb,
            0x4e3c_50a2
        ]
    );
    // The same layout at 8 rounds, zero key, zero nonce, block 0 (the
    // ChaCha8 key-stream of the eSTREAM-style test vector set) — which is
    // also what a generator seeded with 32 zero bytes hands out first.
    let expected = words(
        "3e00ef2f895f40d67f5bb8e81f09a5a12c840ec3ce9a7f3b181be188ef711a1e\
         984ce172b9216f419f445367456d5619314a42a3da86b001387bfdb80e0cfe42",
    );
    let mut rng = ChaCha8Rng::from_seed([0; 32]);
    let first: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
    assert_eq!(first, expected);
    // The counter advances: the second block differs from the first.
    let second: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
    assert_ne!(second, first);
}

#[test]
fn generators_are_deterministic_per_seed_and_uniform_enough() {
    let draw = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(draw(7), draw(7));
    assert_ne!(draw(7), draw(8));

    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut buckets = [0u32; 10];
    let mut sum = 0.0;
    for _ in 0..20_000 {
        let n = rng.gen_range(0..10usize);
        buckets[n] += 1;
        let x: f64 = rng.gen();
        assert!((0.0..1.0).contains(&x));
        sum += x;
        let y = rng.gen_range(-2.5..7.5);
        assert!((-2.5..7.5).contains(&y));
    }
    assert!(
        buckets.iter().all(|&b| (1800..2200).contains(&b)),
        "{buckets:?}"
    );
    assert!((sum / 20_000.0 - 0.5).abs() < 0.01);
    let heads = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
    assert!((4700..5300).contains(&heads), "{heads}");

    use rand::seq::SliceRandom;
    let mut deck: Vec<u32> = (0..52).collect();
    deck.shuffle(&mut rng);
    assert_ne!(deck, (0..52).collect::<Vec<_>>());
    deck.sort_unstable();
    assert_eq!(deck, (0..52).collect::<Vec<_>>());
}

#[test]
fn profile_and_manifest_round_trip() {
    let (profile, manifest) = measured();
    assert!(
        profile.communication.is_some()
            && profile.false_sharing.is_some()
            && profile.micro.is_some()
    );
    for json in [profile.to_json(), serde_json::to_string(&profile).unwrap()] {
        assert_eq!(MachineProfile::from_json(&json).unwrap(), profile);
    }
    assert!(!manifest.spans.is_empty() && !manifest.counters.is_empty());
    assert_eq!(
        RunManifest::from_json(&manifest.to_json()).unwrap(),
        manifest
    );
    // skip_serializing_if: no span of this run carries an annotation key
    // unless it has one.
    let annotated = manifest
        .spans
        .iter()
        .filter(|s| s.annotation.is_some())
        .count();
    assert_eq!(
        manifest.to_json().matches("\"annotation\"").count(),
        annotated
    );

    // Canonical JSON sorts keys at every depth and is what digests hash.
    let canonical = servet_registry::canonical_json(&profile);
    assert!(canonical.starts_with("{\"cache_levels\":[{\"level\":1,\"method\":"));
    assert_eq!(MachineProfile::from_json(&canonical).unwrap(), profile);
    assert_eq!(
        servet_registry::profile_digest(&MachineProfile::from_json(&profile.to_json()).unwrap()),
        servet_registry::profile_digest(&profile)
    );
}

#[test]
fn floats_survive_bit_for_bit() {
    let edge = [
        0.0,
        -0.0,
        1.0,
        0.1,
        1.0 / 3.0,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        1e15,
        1e16,
        1e21,
        1e-7,
        123_456_789.123_456_79,
        527_801.739_549_624_6,
        2.0f64.powi(53) + 2.0,
    ];
    let json = serde_json::to_string(&edge.to_vec()).unwrap();
    let back: Vec<f64> = serde_json::from_str(&json).unwrap();
    for (a, b) in edge.iter().zip(&back) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{a:e} came back as {b:e} through {json}"
        );
    }
    // Integers read as floats where a float is wanted, and non-finite
    // values are written as null.
    assert_eq!(
        serde_json::from_str::<Vec<f64>>("[1, -2, 3e2]").unwrap(),
        [1.0, -2.0, 300.0]
    );
    assert_eq!(
        serde_json::to_string(&vec![f64::NAN, f64::INFINITY]).unwrap(),
        "[null,null]"
    );

    let (mut profile, _) = measured();
    let sweep = profile.mcalibrator.as_mut().unwrap();
    sweep.cycles[0] = 5e-324;
    sweep.cycles[1] = f64::MAX;
    sweep.cycles[2] = -0.0;
    let back = MachineProfile::from_json(&profile.to_json()).unwrap();
    let bits = |p: &MachineProfile| {
        p.mcalibrator
            .as_ref()
            .unwrap()
            .cycles
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&back), bits(&profile));
}

#[test]
fn missing_fields_take_their_defaults() {
    // `default`, `default = "path"` and Option-typed fields may all be
    // absent; anything else may not.
    let old = r#"{"machine":"m","cores_per_node":2,"total_cores":2,"page_size":4096,
        "mcalibrator":null,"cache_levels":[],"shared_caches":null,"memory":null,"communication":null}"#;
    let profile = MachineProfile::from_json(old).unwrap();
    assert_eq!(
        (
            profile.schema_version,
            profile.micro,
            profile.false_sharing.is_none()
        ),
        (0, None, true)
    );
    let no_machine = old.replace("\"machine\":\"m\",", "");
    let error = MachineProfile::from_json(&no_machine)
        .unwrap_err()
        .to_string();
    assert!(error.contains("missing field `machine`"), "{error}");
    // A too-new schema is refused through `de::Error::custom`.
    let too_new = old.replacen('{', "{\"schema_version\":999,", 1);
    assert!(MachineProfile::from_json(&too_new).is_err());

    let options: TuneOptions = serde_json::from_str(r#"{"strategy":"monte_carlo"}"#).unwrap();
    assert_eq!(options, TuneOptions::new(Strategy::MonteCarlo));
    let query: TuneQuery = serde_json::from_str(r#"{"options":{"strategy":"line"}}"#).unwrap();
    assert_eq!((query.n, &query.space), (64, &None));
    assert!(!serde_json::to_string(&query).unwrap().contains("space"));
    let stats: ServerStats = serde_json::from_str(
        r#"{"profiles":1,"requests":2,"advice_hits":0,"advice_misses":0,"advice_evictions":0,
            "profile_hits":0,"profile_misses":0,"unknown_field":[1,{"x":null}]}"#,
    )
    .unwrap();
    assert!(stats.ops.is_empty() && stats.accept.accepted == 0 && stats.events.conns_peak == 0);
}

#[test]
fn every_wire_shape_of_the_registry_readme_round_trips() {
    let (profile, _) = measured();
    // Requests, as the README writes them.
    let readme_requests = [
        r#"{"cmd":"get","key":"tiny"}"#,
        r#"{"cmd":"list"}"#,
        r#"{"cmd":"advise","key":"tiny","query":{"kind":"tile","level":2}}"#,
        r#"{"cmd":"advise","key":"tiny","query":{"kind":"threads"}}"#,
        r#"{"cmd":"advise","key":"tiny","query":{"kind":"bcast"}}"#,
        r#"{"cmd":"advise","key":"tiny","query":{"kind":"padding"}}"#,
        r#"{"cmd":"tune","key":"tiny","query":{"options":{"strategy":"line"},"n":64}}"#,
        r#"{"cmd":"stats"}"#,
    ];
    for text in readme_requests {
        let request: Request = serde_json::from_str(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let again: Request =
            serde_json::from_str(&serde_json::to_string(&request).unwrap()).unwrap();
        assert_eq!(again, request, "{text}");
    }
    assert_eq!(
        serde_json::from_str::<Request>(readme_requests[2]).unwrap(),
        Request::Advise {
            key: "tiny".into(),
            query: AdviceQuery::Tile {
                level: 2,
                elem_size: 8,
                matrices: 3,
                occupancy: 0.75
            }
        }
    );
    // The tag may come anywhere in the object.
    assert_eq!(
        serde_json::from_str::<Request>(r#"{"key":"k","cmd":"get"}"#).unwrap(),
        Request::Get { key: "k".into() }
    );
    let put = Request::Put {
        profile: Box::new(profile.clone()),
        name: Some("tiny".into()),
    };
    let text = serde_json::to_string(&put).unwrap();
    assert!(text.starts_with("{\"cmd\":\"put\",\"profile\":{\"schema_version\":"));
    assert_eq!(serde_json::from_str::<Request>(&text).unwrap(), put);

    // Replies: one of each, through a registry.
    let dir = crate::sys::run_dir()
        .unwrap()
        .join(format!("shim-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = servet_registry::Registry::open(&dir).unwrap();
    let mut requests = vec![put, Request::Get { key: "tiny".into() }, Request::List];
    for kind in ["tile", "threads", "bcast", "padding"] {
        requests.push(
            serde_json::from_str(&format!(
                r#"{{"cmd":"advise","key":"tiny","query":{{"kind":"{kind}"}}}}"#
            ))
            .unwrap(),
        );
    }
    requests.push(serde_json::from_str(readme_requests[6]).unwrap());
    requests.push(Request::Stats);
    requests.push(Request::Get {
        key: "ghost".into(),
    });
    let mut kinds = std::collections::BTreeSet::new();
    for request in requests {
        let reply = registry.handle(request);
        let text = serde_json::to_string(&reply).unwrap();
        assert_eq!(
            serde_json::from_str::<Response>(&text).unwrap(),
            reply,
            "{text}"
        );
        kinds.insert(text.split('"').nth(3).unwrap().to_string());
        if let Response::Advice { outcome, .. } = &reply {
            let text = serde_json::to_string(outcome).unwrap();
            assert_eq!(
                serde_json::from_str::<AdviceOutcome>(&text).unwrap(),
                *outcome
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["advice", "error", "listing", "profile", "stats", "stored", "tuned"]
    );
    // The README's literal replies parse.
    let advice: Response = serde_json::from_str(
        r#"{"reply":"advice","digest":"9f2c","cached":false,
            "outcome":{"kind":"tile","choice":{"tile":120,"level":2,"cache_size":65536}}}"#,
    )
    .unwrap();
    assert!(matches!(
        advice,
        Response::Advice {
            cached: false,
            outcome: AdviceOutcome::Tile { .. },
            ..
        }
    ));
    let tuned: Response = serde_json::from_str(
        r#"{"reply":"tuned","digest":"9f2c","cached":false,
            "outcome":{"oracle":"profile:tiny_cluster:n64","strategy":"line",
                       "space_digest":"3b7e27af7591f001","space_len":96,"evaluations":17,
                       "best":{"pad":8,"placement":0,"threads":2,"tile":16},
                       "best_score":527801.7395496246}}"#,
    )
    .unwrap();
    assert!(
        matches!(tuned, Response::Tuned { outcome, .. } if outcome.best_score == 527_801.739_549_624_6)
    );
    let error: Response =
        serde_json::from_str(r#"{"reply":"error","error":"no profile matches \"ghost\""}"#)
            .unwrap();
    assert_eq!(
        error,
        Response::Error {
            error: "no profile matches \"ghost\"".into()
        }
    );
}

#[test]
fn externally_tagged_enums_take_all_three_shapes() {
    use servet_net::contention::Resource;
    for (value, text) in [
        (Resource::Switch, "\"Switch\""),
        (Resource::NodeBus(3), "{\"NodeBus\":3}"),
        (Resource::Nic(0), "{\"Nic\":0}"),
    ] {
        assert_eq!(serde_json::to_string(&value).unwrap(), text);
        assert_eq!(serde_json::from_str::<Resource>(text).unwrap(), value);
    }
    assert!(serde_json::from_str::<Resource>("\"Hub\"").is_err());
    assert!(serde_json::from_str::<Resource>("{\"NodeBus\":3,\"Nic\":0}").is_err());
    // Tuples, nested generics and a generic struct.
    let cluster = servet_stats::cluster::cluster_by_tolerance(
        vec![(1.0, (0usize, 1usize)), (1.01, (0, 2)), (5.0, (1, 2))],
        0.1,
    );
    let text = serde_json::to_string(&cluster).unwrap();
    let back: Vec<servet_stats::cluster::Cluster<(usize, usize)>> =
        serde_json::from_str(&text).unwrap();
    assert_eq!(back, cluster);
}

#[test]
fn the_parser_is_strict() {
    let bad = [
        "",
        "{",
        "[1,]",
        "{\"a\":1,}",
        "{a:1}",
        "{'a':1}",
        "01",
        "1.",
        ".5",
        "-",
        "+1",
        "1e",
        "0x10",
        "NaN",
        "Infinity",
        "nul",
        "tru",
        "\"\\x\"",
        "\"\\u12\"",
        "\"\\ud800\"",
        "\"\\udc00\"",
        "\"tab\there\"",
        "\"unterminated",
        "[1] 2",
        "1 2",
        "{\"a\" 1}",
        "[1 2]",
        "1e999",
    ];
    for text in bad {
        assert!(
            serde_json::from_str::<serde_json::Value>(text).is_err(),
            "{text:?} parsed"
        );
    }
    let deep = "[".repeat(200) + &"]".repeat(200);
    assert!(serde_json::from_str::<serde_json::Value>(&deep).is_err());
    let good = " {\"a\" : [1, -2, 3.5e+2, true, false, null, \"\\u00e9\\ud83d\\ude00\\n\\/\"], \"b\": {}} \n";
    let value: serde_json::Value = serde_json::from_str(good).unwrap();
    assert_eq!(
        serde_json::to_string(&value).unwrap(),
        "{\"a\":[1,-2,350.0,true,false,null,\"é😀\\n/\"],\"b\":{}}"
    );
    assert_eq!(
        serde_json::to_string_pretty(&value).unwrap(),
        "{\n  \"a\": [\n    1,\n    -2,\n    350.0,\n    true,\n    false,\n    null,\n    \"é😀\\n/\"\n  ],\n  \"b\": {}\n}"
    );
    // Control characters are escaped on the way out.
    assert_eq!(
        serde_json::to_string("a\u{1}\"\\\t").unwrap(),
        "\"a\\u0001\\\"\\\\\\t\""
    );
    // Integers beyond 64 bits become floats; duplicate fields are refused.
    assert_eq!(
        serde_json::from_str::<f64>("18446744073709551616").unwrap(),
        18_446_744_073_709_551_616.0
    );
    assert!(serde_json::from_str::<u64>("-1").is_err());
    assert!(serde_json::from_str::<u8>("256").is_err());
    assert!(serde_json::from_str::<Request>(r#"{"cmd":"get","key":"a","key":"b"}"#).is_err());
    // `to_value` sorts keys; plain serialization keeps declaration order.
    let query = AdviceQuery::Tile {
        level: 1,
        elem_size: 8,
        matrices: 3,
        occupancy: 0.75,
    };
    assert_eq!(
        serde_json::to_string(&query).unwrap(),
        r#"{"kind":"tile","level":1,"elem_size":8,"matrices":3,"occupancy":0.75}"#
    );
    assert_eq!(
        serde_json::to_string(&serde_json::to_value(&query).unwrap()).unwrap(),
        r#"{"elem_size":8,"kind":"tile","level":1,"matrices":3,"occupancy":0.75}"#
    );
}
