//! `snapshot-tool`: inspect, verify and convert PECAN snapshot files.
//!
//! ```text
//! snapshot-tool info model.psnp            # header, shapes, section map
//! snapshot-tool verify model.psnp          # every checksum; exit 0/1
//! snapshot-tool convert --to 4 old.psnp new.psnp
//! ```
//!
//! `info` reads only the header (plus the whole-file checksum for v1/v2
//! files, where nothing smaller exists). `verify` fully decodes the file
//! the way `FrozenEngine::load_snapshot` would — per-section CRCs and
//! structural validation for v3/v4, whole-file CRC for v1/v2 — and exits
//! non-zero on the first problem, so it slots into CI and deploy gates.
//! `convert` re-encodes between any two supported versions; converting
//! v1/v2/v3 → 4 is how pre-existing models become memory-mappable
//! (`serve --mmap`). Conversion is lossless: the engine loaded from the
//! output predicts bit-identically to one loaded from the input. The
//! byte-level formats are specified in `docs/snapshot-format.md`.

use pecan_serve::{inspect_snapshot_bytes, FrozenEngine, SNAPSHOT_VERSION};
use std::process::ExitCode;

fn usage() -> String {
    "usage: snapshot-tool info PATH\n\
     \u{20}      snapshot-tool verify PATH\n\
     \u{20}      snapshot-tool convert --to VERSION IN OUT"
        .into()
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("info") => {
            let [_, path] = args.as_slice() else { return Err(usage()) };
            info(path)
        }
        Some("verify") => {
            let [_, path] = args.as_slice() else { return Err(usage()) };
            verify(path)
        }
        Some("convert") => {
            let [_, to_flag, version, input, output] = args.as_slice() else {
                return Err(usage());
            };
            if to_flag != "--to" {
                return Err(usage());
            }
            let version: u32 = version
                .parse()
                .map_err(|_| format!("--to: `{version}` is not a version number"))?;
            convert(version, input, output)
        }
        Some("--help" | "-h") | None => Err(usage()),
        Some(other) => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn read(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn info(path: &str) -> Result<(), String> {
    let bytes = read(path)?;
    let info = inspect_snapshot_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    println!("file:        {path}");
    println!("version:     {}", info.version);
    println!("model:       {}", info.name.as_deref().unwrap_or("(unnamed)"));
    println!("input:       {:?}", info.input_shape);
    println!("output:      {:?}", info.output_shape);
    println!("stages:      {}", info.stage_count);
    println!("file bytes:  {}", info.file_len);
    if info.sections.is_empty() {
        println!("sections:    none (v1/v2 inline stream, whole-file CRC-32)");
    } else {
        let payload: u64 = info.sections.iter().map(|s| s.byte_len).sum();
        println!("sections:    {} ({payload} payload bytes, 64-byte aligned)", info.sections.len());
        for (i, s) in info.sections.iter().enumerate() {
            println!(
                "  [{i:3}] offset {:>10}  len {:>10}  crc32 {:08x}",
                s.offset, s.byte_len, s.crc
            );
        }
    }
    Ok(())
}

fn verify(path: &str) -> Result<(), String> {
    let bytes = read(path)?;
    let info = inspect_snapshot_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    // The copying decoder checks everything the format promises: header
    // CRC + every section CRC + structural validation (v3/v4), or the
    // whole-file CRC + structural validation (v1/v2).
    let engine = FrozenEngine::from_snapshot_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: OK (v{}, model `{}`, {} stages, {} sections, {} bytes)",
        info.version,
        engine.name().unwrap_or("default"),
        info.stage_count,
        info.sections.len(),
        info.file_len,
    );
    Ok(())
}

fn convert(version: u32, input: &str, output: &str) -> Result<(), String> {
    if !(1..=SNAPSHOT_VERSION).contains(&version) {
        return Err(format!(
            "--to: version {version} is not supported (1..={SNAPSHOT_VERSION})"
        ));
    }
    let bytes = read(input)?;
    let from = inspect_snapshot_bytes(&bytes).map_err(|e| format!("{input}: {e}"))?;
    let engine = FrozenEngine::from_snapshot_bytes(&bytes).map_err(|e| format!("{input}: {e}"))?;
    let converted = engine
        .snapshot_bytes_versioned(version)
        .map_err(|e| format!("cannot encode v{version}: {e}"))?;
    std::fs::write(output, &converted).map_err(|e| format!("cannot write {output}: {e}"))?;
    println!(
        "{input} (v{}) -> {output} (v{version}, {} bytes, model `{}`)",
        from.version,
        converted.len(),
        engine.name().unwrap_or("default"),
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
