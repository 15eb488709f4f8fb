//! Snapshot format pins: save→load→predict parity (bit-exact, by property
//! test) and typed, panic-free errors for every corruption mode.

use pecan_serve::{demo, FrozenEngine, SnapshotError, SNAPSHOT_VERSION};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "bit mismatch at {i}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Reloaded engines answer bit-identically, for MLP and conv models.
    #[test]
    fn save_load_predict_parity(seed in 0u64..5, conv in proptest::bool::ANY) {
        let engine = if conv { demo::lenet_engine(seed) } else { demo::mlp_engine(seed) };
        let bytes = engine.snapshot_bytes();
        let reloaded = FrozenEngine::from_snapshot_bytes(&bytes).unwrap();
        prop_assert_eq!(engine.input_shape(), reloaded.input_shape());
        prop_assert_eq!(engine.output_shape(), reloaded.output_shape());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        for _ in 0..3 {
            let x = pecan_tensor::uniform(&mut rng, &[engine.input_len()], -1.0, 1.0)
                .into_vec();
            assert_bits_eq(&engine.predict(&x).unwrap(), &reloaded.predict(&x).unwrap());
        }
        // serialization is stable: re-saving the reload is byte-identical
        prop_assert_eq!(bytes, reloaded.snapshot_bytes());
    }

    /// No truncation point panics, and every one is a typed error.
    #[test]
    fn any_truncation_is_a_typed_error(cut_permille in 0u32..1000) {
        let bytes = demo::mlp_engine(1).snapshot_bytes();
        let cut = (bytes.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        let err = FrozenEngine::from_snapshot_bytes(&bytes[..cut]).unwrap_err();
        prop_assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::ChecksumMismatch { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::Corrupt(_)
            ),
            "truncation at {cut} gave {err:?}"
        );
    }

    /// No single flipped byte panics; almost all are checksum mismatches.
    /// (v2: the whole-file CRC covers every byte. v3 inter-section padding
    /// is deliberately outside any checksum, so this pin uses v2.)
    #[test]
    fn any_flipped_byte_is_a_typed_error(pos_permille in 0u32..1000, flip in 1u32..256) {
        let mut bytes = demo::mlp_engine(2).snapshot_bytes_versioned(2).unwrap();
        let pos = (bytes.len() as u64 * u64::from(pos_permille) / 1000) as usize;
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] ^= flip as u8;
        prop_assert!(FrozenEngine::from_snapshot_bytes(&bytes).is_err());
    }

    /// v3 and v4: a flip anywhere inside the header region is caught by
    /// the header CRC (or by magic/version gating) before any section is
    /// touched.
    #[test]
    fn v3_header_flip_is_a_typed_error(pos_permille in 0u32..1000, flip in 1u32..256) {
        for version in [3, SNAPSHOT_VERSION] {
            let mut bytes = demo::mlp_engine(2).snapshot_bytes_versioned(version).unwrap();
            let header_len =
                u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
            let pos = (header_len as u64 * u64::from(pos_permille) / 1000) as usize;
            let pos = pos.min(header_len - 1);
            bytes[pos] ^= flip as u8;
            prop_assert!(FrozenEngine::from_snapshot_bytes(&bytes).is_err());
        }
    }

    /// v3 and v4: a flip anywhere inside any *section payload* trips
    /// exactly that section's CRC on the copying path.
    #[test]
    fn v3_section_flip_reports_checksum_mismatch(
        section_seed in proptest::num::u64::ANY,
        pos_permille in 0u32..1000,
        flip in 1u32..256,
    ) {
        for version in [3, SNAPSHOT_VERSION] {
            let mut bytes = demo::mlp_engine(2).snapshot_bytes_versioned(version).unwrap();
            let info = pecan_serve::inspect_snapshot_bytes(&bytes).unwrap();
            let s = info.sections[(section_seed % info.sections.len() as u64) as usize];
            let pos = s.offset + s.byte_len as u64 * u64::from(pos_permille) / 1000;
            let pos = (pos as usize).min((s.offset + s.byte_len) as usize - 1);
            bytes[pos] ^= flip as u8;
            prop_assert!(matches!(
                FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err(),
                SnapshotError::ChecksumMismatch { .. }
            ));
        }
    }
}

#[test]
fn corrupt_magic_reports_bad_magic() {
    let mut bytes = demo::mlp_engine(1).snapshot_bytes();
    bytes[0] ^= 0xFF;
    assert!(matches!(
        FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err(),
        SnapshotError::BadMagic
    ));
}

#[test]
fn future_version_reports_unsupported_not_checksum() {
    let mut bytes = demo::mlp_engine(1).snapshot_bytes();
    bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 7).to_le_bytes());
    match FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err() {
        SnapshotError::UnsupportedVersion { found } => {
            assert_eq!(found, SNAPSHOT_VERSION + 7);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn payload_flip_reports_checksum_mismatch() {
    let mut bytes = demo::mlp_engine(1).snapshot_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    assert!(matches!(
        FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err(),
        SnapshotError::ChecksumMismatch { .. }
    ));
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = demo::mlp_engine(1).snapshot_bytes_versioned(2).unwrap();
    // Keep the checksum trailer last so the tamper is structural, not bit
    // rot: splice zeros in *before* the trailer and fix the checksum up.
    let trailer_at = bytes.len() - 4;
    bytes.splice(trailer_at..trailer_at, std::iter::repeat(0u8).take(8));
    let payload_len = bytes.len() - 4;
    let crc = pecan_serve::crc32(&bytes[..payload_len]);
    let end = bytes.len();
    bytes[end - 4..].copy_from_slice(&crc.to_le_bytes());
    match FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err() {
        SnapshotError::Corrupt(msg) => assert!(msg.contains("trailing")),
        other => panic!("expected Corrupt(trailing), got {other:?}"),
    }
}

/// Byte offset of the input-shape *rank* field: magic(8) + version(4) +
/// name header (v2 only: u32 length + bytes).
fn input_rank_offset(bytes: &[u8]) -> usize {
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version >= 2 {
        let name_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        16 + name_len
    } else {
        12
    }
}

/// Recomputes and installs the CRC-32 trailer after a structural tamper.
fn fix_crc(bytes: &mut [u8]) {
    let payload_len = bytes.len() - 4;
    let crc = pecan_serve::crc32(&bytes[..payload_len]);
    bytes[payload_len..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn crafted_inconsistent_pipeline_is_rejected_not_a_panic() {
    // A snapshot whose checksum is valid but whose declared input shape
    // does not thread through the stages must fail at *load* time — never
    // at predict time inside a scheduler worker.
    let mut bytes = demo::mlp_engine(1).snapshot_bytes_versioned(2).unwrap();
    let dim_at = input_rank_offset(&bytes) + 4; // first dim after rank
    assert_eq!(u32::from_le_bytes(bytes[dim_at..dim_at + 4].try_into().unwrap()), 64);
    bytes[dim_at..dim_at + 4].copy_from_slice(&63u32.to_le_bytes());
    fix_crc(&mut bytes);
    match FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err() {
        SnapshotError::Corrupt(msg) => {
            assert!(msg.contains("carries [63]"), "got: {msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn v2_round_trips_the_model_name() {
    let engine = demo::mlp_engine(4); // named "mlp"
    assert_eq!(engine.name(), Some("mlp"));
    let bytes = engine.snapshot_bytes();
    let reloaded = FrozenEngine::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(reloaded.name(), Some("mlp"));
    // renaming changes only the header, not the model
    let renamed = demo::mlp_engine(4).with_name("mlp-canary");
    let reloaded2 = FrozenEngine::from_snapshot_bytes(&renamed.snapshot_bytes()).unwrap();
    assert_eq!(reloaded2.name(), Some("mlp-canary"));
    let x = vec![0.25f32; engine.input_len()];
    assert_bits_eq(&reloaded.predict(&x).unwrap(), &reloaded2.predict(&x).unwrap());
}

#[test]
fn v1_files_still_load_bit_identically() {
    for (engine, conv) in [(demo::mlp_engine(3), false), (demo::lenet_engine(3), true)] {
        let v1 = engine.snapshot_bytes_versioned(1).unwrap();
        let loaded = FrozenEngine::from_snapshot_bytes(&v1).unwrap();
        assert_eq!(loaded.name(), None, "v1 carries no name (conv={conv})");
        assert_eq!(loaded.input_shape(), engine.input_shape());
        let mut rng = StdRng::seed_from_u64(99);
        let x = pecan_tensor::uniform(&mut rng, &[engine.input_len()], -1.0, 1.0).into_vec();
        assert_bits_eq(&engine.predict(&x).unwrap(), &loaded.predict(&x).unwrap());
        // v1 re-encoding of the reload is byte-identical (stable format)
        assert_eq!(v1, loaded.snapshot_bytes_versioned(1).unwrap());
    }
}

#[test]
fn version_0_and_future_versions_are_rejected_with_typed_errors() {
    // Stamp a future version over valid v2 bytes: even with a *valid*
    // checksum, the version gates first.
    let mut bytes = demo::mlp_engine(1).snapshot_bytes_versioned(2).unwrap();
    bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    fix_crc(&mut bytes);
    match FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err() {
        SnapshotError::UnsupportedVersion { found } => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    // version 0 is nonsense, not "older than 1"
    bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
    fix_crc(&mut bytes);
    assert!(matches!(
        FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err(),
        SnapshotError::UnsupportedVersion { found: 0 }
    ));
}

#[test]
fn name_header_corruption_is_typed_never_a_panic() {
    // The name sits at a fixed offset only in the v2 sequential layout.
    let engine = demo::mlp_engine(1);
    let base = engine.snapshot_bytes_versioned(2).unwrap();

    // Declared name length beyond the whole payload → truncation. Needs a
    // model small enough that an in-limit length (≤ 4096) overruns it.
    let tiny = {
        use pecan_core::{PecanLinear, PecanVariant, PqLayerSettings};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = pecan_nn::Sequential::new();
        net.push(Box::new(
            PecanLinear::new(
                &mut rng,
                PecanVariant::Distance,
                PqLayerSettings::new(8, 4, 1.0),
                16,
                5,
            )
            .unwrap(),
        ));
        FrozenEngine::compile(&net, &[16]).unwrap().with_name("tiny")
    };
    let mut bytes = tiny.snapshot_bytes_versioned(2).unwrap();
    assert!(bytes.len() < 4000, "tiny model must be smaller than the declared name");
    bytes[12..16].copy_from_slice(&4000u32.to_le_bytes());
    fix_crc(&mut bytes);
    assert!(matches!(
        FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err(),
        SnapshotError::Truncated { .. }
    ));

    // Absurd declared length → bounded, typed Corrupt (no huge allocation).
    let mut bytes = base.clone();
    bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    fix_crc(&mut bytes);
    match FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err() {
        SnapshotError::Corrupt(msg) => assert!(msg.contains("name"), "got: {msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Length shortened by one: the name eats into the shape fields and the
    // stream no longer lines up — typed error, never a panic.
    let mut bytes = base;
    let len = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    bytes[12..16].copy_from_slice(&(len - 1).to_le_bytes());
    fix_crc(&mut bytes);
    assert!(FrozenEngine::from_snapshot_bytes(&bytes).is_err());

    // Non-UTF-8 name bytes → Corrupt.
    let mut bytes = engine.snapshot_bytes_versioned(2).unwrap();
    bytes[16] = 0xFF; // first name byte ("mlp" → invalid sequence)
    fix_crc(&mut bytes);
    match FrozenEngine::from_snapshot_bytes(&bytes).unwrap_err() {
        SnapshotError::Corrupt(msg) => assert!(msg.contains("UTF-8"), "got: {msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn v2_to_v3_conversion_is_bit_identical_at_the_infer_level() {
    // The snapshot-tool convert path: load a v2 file, re-encode as v3.
    // The converted engine must answer bit-identically — the layouts
    // differ ([d,p] codebooks vs [p,d] CAM rows) but the bits must not.
    for engine in [demo::mlp_engine(5), demo::lenet_engine(5)] {
        let v2 = engine.snapshot_bytes_versioned(2).unwrap();
        let from_v2 = FrozenEngine::from_snapshot_bytes(&v2).unwrap();
        let v3 = from_v2.snapshot_bytes_versioned(3).unwrap();
        let from_v3 = FrozenEngine::from_snapshot_bytes(&v3).unwrap();
        assert_eq!(from_v2.name(), from_v3.name());
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..3 {
            let x = pecan_tensor::uniform(&mut rng, &[engine.input_len()], -1.0, 1.0)
                .into_vec();
            assert_bits_eq(&from_v2.predict(&x).unwrap(), &from_v3.predict(&x).unwrap());
        }
        // Converting back to v2 reproduces the original file byte-for-byte.
        assert_eq!(v2, from_v3.snapshot_bytes_versioned(2).unwrap());
    }
}

#[test]
fn empty_and_foreign_files_are_rejected() {
    assert!(matches!(
        FrozenEngine::from_snapshot_bytes(&[]).unwrap_err(),
        SnapshotError::Truncated { .. }
    ));
    assert!(matches!(
        FrozenEngine::from_snapshot_bytes(b"#!/bin/sh\necho not a model\n").unwrap_err(),
        SnapshotError::BadMagic
    ));
}

#[test]
fn file_round_trip_through_disk() {
    let engine = demo::lenet_engine(6);
    let dir = std::env::temp_dir().join(format!("pecan-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.psnp");
    engine.save_snapshot(&path).unwrap();
    let reloaded = FrozenEngine::load_snapshot(&path).unwrap();
    let x = vec![0.5f32; engine.input_len()];
    assert_bits_eq(&engine.predict(&x).unwrap(), &reloaded.predict(&x).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();

    // Missing file surfaces as Io, not a panic.
    assert!(matches!(
        FrozenEngine::load_snapshot(dir.join("nope.psnp")).unwrap_err(),
        SnapshotError::Io(_)
    ));
}

#[test]
fn v3_files_load_and_infer_bit_identically_to_v4() {
    // v3 stores `[c_out, p]` tables; the copying loader transposes them
    // into the v4 runtime layout, so the engines are equal and answer
    // with the same bits.
    for engine in [demo::mlp_engine(7), demo::lenet_engine(7)] {
        let v4 = FrozenEngine::from_snapshot_bytes(&engine.snapshot_bytes()).unwrap();
        let v3 = FrozenEngine::from_snapshot_bytes(&engine.snapshot_bytes_versioned(3).unwrap())
            .unwrap();
        for (a, b) in v3.stages().iter().zip(v4.stages()) {
            if let (Some(a), Some(b)) = (a.lut(), b.lut()) {
                assert_eq!(a.luts(), b.luts());
            }
        }
        let mut rng = StdRng::seed_from_u64(71);
        let cols = 5;
        let x = pecan_tensor::uniform(&mut rng, &[cols * engine.input_len()], -1.0, 1.0)
            .into_vec();
        let batch = |x: &[f32]| {
            pecan_core::InferBatch::from_data(x.to_vec(), engine.input_shape(), cols).unwrap()
        };
        let want = v4.infer(batch(&x)).unwrap();
        let got = v3.infer(batch(&x)).unwrap();
        assert_bits_eq(got.data(), want.data());
        assert_bits_eq(want.data(), engine.infer(batch(&x)).unwrap().data());
    }
}

#[test]
fn v4_round_trips_through_v3_and_v2_byte_identically() {
    for engine in [demo::mlp_engine(8), demo::lenet_engine(8)] {
        let v4 = engine.snapshot_bytes();
        assert_eq!(u32::from_le_bytes(v4[8..12].try_into().unwrap()), SNAPSHOT_VERSION);
        for older in [3, 2] {
            let down = FrozenEngine::from_snapshot_bytes(&v4)
                .unwrap()
                .snapshot_bytes_versioned(older)
                .unwrap();
            assert_eq!(u32::from_le_bytes(down[8..12].try_into().unwrap()), older);
            let up = FrozenEngine::from_snapshot_bytes(&down).unwrap().snapshot_bytes();
            assert!(up == v4, "v4 -> v{older} -> v4 changed the bytes");
        }
    }
}

#[test]
fn mmap_borrows_v4_tables_and_copies_v3_files() {
    let engine = demo::lenet_engine(9);
    let dir = std::env::temp_dir().join(format!("pecan-snap-mmap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (v4_path, v3_path) = (dir.join("v4.psnp"), dir.join("v3.psnp"));
    engine.save_snapshot(&v4_path).unwrap();
    std::fs::write(&v3_path, engine.snapshot_bytes_versioned(3).unwrap()).unwrap();
    let mapped = FrozenEngine::open_snapshot(&v4_path).unwrap();
    let copied = FrozenEngine::open_snapshot(&v3_path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let tables = |e: &FrozenEngine| -> Vec<bool> {
        e.stages()
            .iter()
            .filter_map(|s| s.lut())
            .flat_map(|l| l.luts().iter().map(|t| t.prototype_rows().is_shared()))
            .collect()
    };
    assert!(!tables(&copied).is_empty());
    assert!(tables(&copied).iter().all(|&shared| !shared), "v3 must load by copy");
    assert!(!copied.uses_shared_storage());
    if pecan_serve::mmap_supported() {
        assert!(tables(&mapped).iter().all(|&shared| shared), "v4 tables must borrow the map");
    }
    let mut rng = StdRng::seed_from_u64(72);
    for _ in 0..3 {
        let x = pecan_tensor::uniform(&mut rng, &[engine.input_len()], -1.0, 1.0).into_vec();
        let want = engine.predict(&x).unwrap();
        assert_bits_eq(&mapped.predict(&x).unwrap(), &want);
        assert_bits_eq(&copied.predict(&x).unwrap(), &want);
    }
}
