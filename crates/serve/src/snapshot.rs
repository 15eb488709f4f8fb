//! Versioned, endian-stable binary model snapshots.
//!
//! A snapshot captures a compiled [`FrozenEngine`] exactly: per-stage
//! codebooks, precomputed `W·C` lookup tables and biases, all as
//! little-endian IEEE-754 bit patterns. Loading rebuilds the engine without
//! any recomputation, so a reloaded engine's outputs are **bit-identical**
//! to the saved one's — `tests/snapshot_roundtrip.rs` pins
//! save→load→predict parity by property test.
//!
//! The normative byte-level specification of all four format revisions
//! lives in [`docs/snapshot-format.md`] — this module doc is the summary.
//!
//! [`docs/snapshot-format.md`]: https://github.com/pecan/pecan/blob/main/docs/snapshot-format.md
//!
//! # Format
//!
//! All integers little-endian; `f32` as raw LE bit patterns.
//!
//! **Versions 1–2** are a single sequential stream with a trailing whole-file
//! CRC-32:
//!
//! ```text
//! magic        8 × u8   "PECANSNP"
//! version      u32      1 or 2
//! model name   u32 len + UTF-8 bytes     — version ≥ 2 only; 0 = unnamed
//! input rank   u32      then that many u32 dims
//! output rank  u32      then that many u32 dims
//! stage count  u32
//! stages…               tagged (u8), bulk f32 data inline
//! checksum     u32      CRC-32 (IEEE) over every preceding byte
//! ```
//!
//! **Versions 3–4** split the file into a self-checksummed header and
//! 64-byte-aligned bulk **sections** addressed by a directory. Version 4
//! (current) stores every section in the engine's *runtime* layout (CAM
//! rows `[p, d]`, prototype-major tables `[p, cout]`) so a loader can
//! construct the engine over a borrowed byte buffer — e.g. a memory-mapped
//! file — with **no bulk copy** ([`FrozenEngine::open_snapshot`]).
//! Version 3 is the same container with `[cout, p]` tables; it stays
//! readable and writable, but only through the copying loader, which
//! transposes its tables once:
//!
//! ```text
//! magic          8 × u8   "PECANSNP"
//! version        u32      3 or 4
//! header_len     u32      bytes [0, header_len) are the header region
//! section count  u32
//! directory      count × { offset u64, byte_len u64, crc u32 }
//! model name     u32 len + UTF-8 bytes
//! input/output dims, stage count, stage descriptors
//!                         — as v2, except every bulk f32 blob is replaced
//!                           by the u32 index of its section
//! header CRC     u32      CRC-32 over bytes [0, header_len - 4)
//! zero padding            to the next 64-byte boundary
//! sections…               raw LE f32, each 64-byte aligned, zero-padded;
//!                         the file length is a multiple of 64
//! ```
//!
//! Every section carries its own CRC-32 in the directory: the copying
//! loader checks them all; the zero-copy loader checks the header eagerly
//! and leaves section verification to [`FrozenEngine::open_snapshot_verified`]
//! or the `snapshot-tool verify` command, so an open does not have to fault
//! in the bulk data (instant cold start).
//!
//! [`FrozenEngine::load_snapshot`] still reads version-1/2/3 files
//! bit-identically via the copying path. Snapshots from *newer* revisions
//! are rejected with a typed [`SnapshotError::UnsupportedVersion`]. To
//! produce a file an old reader can load, use
//! [`FrozenEngine::snapshot_bytes_versioned`] with version 1, 2 or 3 (also
//! exposed as `snapshot-tool convert`).
//!
//! Stage tags: `0` ReLU · `1` MaxPool (`kernel`, `stride` as u32) · `2`
//! GlobalAvgPool · `3` Flatten · `4` PECAN conv · `5` PECAN linear. PECAN
//! payloads carry `variant` (u8: 0 = Distance, 1 = Angle), `dim`,
//! `groups`, `prototypes` (u32), `tau` (f32), `c_out` (u32), a bias flag
//! (u8), conv-only geometry (`c_in`, `h_in`, `w_in`, `kernel`, `stride`,
//! `padding` as u32), then per group the codebook and the table (v1/v2:
//! inline `[d, p]` codebook and `[c_out, p]` table bits; v3/v4: section
//! indices of the `[p, d]` CAM rows and of the table, `[c_out, p]` in v3
//! and `[p, c_out]` in v4), then the bias when flagged.
//!
//! Every decoding failure is a typed [`SnapshotError`] — truncation,
//! flipped bits (checksum), foreign files (magic), future versions,
//! structural nonsense (with a *valid* checksum) and trailing bytes all
//! surface as errors, never panics.

use crate::engine::FrozenEngine;
use crate::error::SnapshotError;
use crate::stage::{
    FlattenStage, GlobalAvgPoolStage, LutConvStage, LutLinearStage, MaxPoolStage, ReluStage,
    Stage,
};
use pecan_cam::LookupTable;
use pecan_core::{LayerLut, PecanVariant};
use pecan_pq::PqConfig;
use pecan_tensor::{Conv2dGeometry, F32Source, Tensor};
use std::fs;
use std::path::Path;
use std::sync::Arc;

/// First eight bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"PECANSNP";
/// Format revision this build writes and the highest it reads.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Alignment of every v3/v4 section (and of the v3/v4 file length).
pub const SECTION_ALIGN: usize = 64;

const TAG_RELU: u8 = 0;
const TAG_MAXPOOL: u8 = 1;
const TAG_GAP: u8 = 2;
const TAG_FLATTEN: u8 = 3;
const TAG_CONV: u8 = 4;
const TAG_LINEAR: u8 = 5;

/// Longest accepted model-name header, in bytes.
const NAME_LIMIT: usize = 4096;

/// Ceiling on the v3/v4 section count — far above any real model, small
/// enough that a corrupt header cannot demand a gigantic directory.
const SECTION_LIMIT: usize = 1 << 20;

// ---------------------------------------------------------------- CRC-32

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) lookup table,
/// computed at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the snapshot integrity check.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

fn align_up(n: usize) -> usize {
    n.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

// ---------------------------------------------------------------- writer

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        // Shapes in this workspace are far below u32::MAX; keep the file
        // format fixed-width regardless of host pointer size.
        self.u32(u32::try_from(v).expect("snapshot dimension exceeds u32"));
    }
    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32s(&mut self, vs: &[f32]) {
        for &v in vs {
            self.f32(v);
        }
    }
    fn dims(&mut self, dims: &[usize]) {
        self.usize(dims.len());
        for &d in dims {
            self.usize(d);
        }
    }
}

/// Collects the bulk payloads of a v3/v4 snapshot while the stage
/// descriptors are encoded; the assembler lays them out aligned afterwards.
struct SectionWriter {
    /// The revision being written: it decides the table layout.
    version: u32,
    payloads: Vec<Vec<u8>>,
}

impl SectionWriter {
    /// Encodes `data` as LE bytes and returns the new section's index.
    fn add(&mut self, data: &[f32]) -> usize {
        let mut buf = Vec::with_capacity(data.len() * 4);
        for &v in data {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        self.payloads.push(buf);
        self.payloads.len() - 1
    }
}

// ---------------------------------------------------------------- reader

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let available = self.bytes.len() - self.pos;
        if available < n {
            return Err(SnapshotError::Truncated { needed: n, available });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("eight bytes")))
    }
    fn usize(&mut self) -> Result<usize, SnapshotError> {
        Ok(self.u32()? as usize)
    }
    fn f32(&mut self) -> Result<f32, SnapshotError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, SnapshotError> {
        let b = self.take(n.checked_mul(4).ok_or_else(|| {
            SnapshotError::Corrupt("element count overflows".into())
        })?)?;
        Ok(decode_f32s(b))
    }
    /// Bounded dimension list; `limit` guards against absurd declared sizes
    /// in a file whose checksum happens to validate.
    fn dims(&mut self, limit: usize) -> Result<Vec<usize>, SnapshotError> {
        let rank = self.usize()?;
        if rank == 0 || rank > 8 {
            return Err(SnapshotError::Corrupt(format!("shape rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            let d = self.usize()?;
            if d == 0 || d > limit {
                return Err(SnapshotError::Corrupt(format!("dimension {d}")));
            }
            dims.push(d);
        }
        Ok(dims)
    }
    /// Length-prefixed UTF-8 model name; empty means unnamed.
    fn name(&mut self) -> Result<Option<String>, SnapshotError> {
        let len = self.usize()?;
        if len > NAME_LIMIT {
            return Err(SnapshotError::Corrupt(format!(
                "model name of {len} bytes exceeds the {NAME_LIMIT}-byte limit"
            )));
        }
        if len == 0 {
            return Ok(None);
        }
        let raw = self.take(len)?;
        match std::str::from_utf8(raw) {
            Ok(s) => Ok(Some(s.to_string())),
            Err(_) => Err(SnapshotError::Corrupt("model name is not UTF-8".into())),
        }
    }
}

fn decode_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Ceiling on any single declared dimension — far above every model in the
/// workspace, small enough that `rank · dim · 4` cannot wrap.
const DIM_LIMIT: usize = 1 << 24;

// ---------------------------------------------------------------- encode

/// Encodes the PECAN scalar header shared by every format revision.
fn write_pecan_scalars(w: &mut Writer, lut: &LayerLut, geom: Option<&Conv2dGeometry>) {
    let cfg = lut.config();
    w.u8(match lut.variant() {
        PecanVariant::Distance => 0,
        PecanVariant::Angle => 1,
    });
    w.usize(cfg.dim());
    w.usize(cfg.groups());
    w.usize(cfg.prototypes());
    w.f32(cfg.tau());
    w.usize(lut.outputs());
    w.u8(u8::from(lut.bias().is_some()));
    if let Some(g) = geom {
        w.usize(g.c_in());
        w.usize(g.h_in());
        w.usize(g.w_in());
        w.usize(g.kernel());
        w.usize(g.stride());
        w.usize(g.padding());
    }
}

/// A table's bits in the `[cout, p]` layout of snapshots v1–v3. The copy
/// is temporary: writing an old revision never builds the table's cached
/// [`LookupTable::table`] view on a live engine.
fn output_major(table: &LookupTable) -> Tensor {
    table.prototype_rows().transpose2().expect("lookup tables are rank 2")
}

/// v1/v2 PECAN payload: scalars then inline `[d, p]` codebook and
/// `[cout, p]` table bits per group, then the bias.
fn write_pecan(w: &mut Writer, lut: &LayerLut, geom: Option<&Conv2dGeometry>) {
    write_pecan_scalars(w, lut, geom);
    for (cb, table) in lut.codebooks().iter().zip(lut.luts()) {
        w.f32s(cb.data());
        w.f32s(output_major(table).data());
    }
    if let Some(b) = lut.bias() {
        w.f32s(b.data());
    }
}

/// v3/v4 PECAN payload: scalars then per group the section indices of
/// the `[p, d]` CAM rows and the table, then the bias section. v4 stores
/// the table in its runtime `[p, cout]` layout, so serialization is a byte
/// copy and zero-copy loading needs no transform; v3 stores `[cout, p]`.
fn write_pecan_sectioned(
    w: &mut Writer,
    sections: &mut SectionWriter,
    lut: &LayerLut,
    geom: Option<&Conv2dGeometry>,
) {
    write_pecan_scalars(w, lut, geom);
    for (rows, table) in lut.cam_rows().iter().zip(lut.luts()) {
        w.usize(sections.add(rows.data()));
        let idx = if sections.version >= 4 {
            sections.add(table.prototype_rows().data())
        } else {
            sections.add(output_major(table).data())
        };
        w.usize(idx);
    }
    if let Some(b) = lut.bias() {
        w.usize(sections.add(b.data()));
    }
}

/// Reads the PECAN scalar header shared by every format revision and
/// derives the validated [`PqConfig`] (+ conv geometry).
#[allow(clippy::type_complexity)]
fn read_pecan_scalars(
    r: &mut Reader<'_>,
    conv: bool,
) -> Result<(PecanVariant, PqConfig, usize, bool, Option<Conv2dGeometry>), SnapshotError> {
    let variant = match r.u8()? {
        0 => PecanVariant::Distance,
        1 => PecanVariant::Angle,
        other => return Err(SnapshotError::Corrupt(format!("variant tag {other}"))),
    };
    let dim = r.usize()?;
    let groups = r.usize()?;
    let prototypes = r.usize()?;
    let tau = r.f32()?;
    let c_out = r.usize()?;
    let has_bias = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(SnapshotError::Corrupt(format!("bias flag {other}"))),
    };
    for (what, v) in
        [("dim", dim), ("groups", groups), ("prototypes", prototypes), ("c_out", c_out)]
    {
        if v == 0 || v > DIM_LIMIT {
            return Err(SnapshotError::Corrupt(format!("{what} = {v}")));
        }
    }
    let geom = if conv {
        let (c_in, h_in, w_in) = (r.usize()?, r.usize()?, r.usize()?);
        let (kernel, stride, padding) = (r.usize()?, r.usize()?, r.usize()?);
        Some(
            Conv2dGeometry::new(c_in, h_in, w_in, kernel, stride, padding)
                .map_err(|e| SnapshotError::Corrupt(e.to_string()))?,
        )
    } else {
        None
    };
    let config = PqConfig::for_rows(groups * dim, prototypes, dim, tau)
        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
    if let Some(g) = &geom {
        if g.patch_len() != config.rows() {
            return Err(SnapshotError::Corrupt(format!(
                "conv patch length {} does not match {} PQ rows",
                g.patch_len(),
                config.rows()
            )));
        }
    }
    Ok((variant, config, c_out, has_bias, geom))
}

fn read_pecan(
    r: &mut Reader<'_>,
    conv: bool,
) -> Result<(LayerLut, Option<Conv2dGeometry>), SnapshotError> {
    let (variant, config, c_out, has_bias, geom) = read_pecan_scalars(r, conv)?;
    let (dim, groups, prototypes) =
        (config.dim(), config.groups(), config.prototypes());
    let mut codebooks = Vec::with_capacity(groups);
    let mut tables = Vec::with_capacity(groups);
    for _ in 0..groups {
        let cb = Tensor::from_vec(r.f32s(dim * prototypes)?, &[dim, prototypes])
            .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        let table = Tensor::from_vec(r.f32s(c_out * prototypes)?, &[c_out, prototypes])
            .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        codebooks.push(cb);
        tables.push(
            LookupTable::new(table).map_err(|e| SnapshotError::Corrupt(e.to_string()))?,
        );
    }
    let bias = if has_bias {
        Some(Tensor::from_slice(&r.f32s(c_out)?))
    } else {
        None
    };
    let lut = LayerLut::from_tables(variant, config, &codebooks, tables, bias)
        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
    Ok((lut, geom))
}

/// Section-materialization callback for v3/v4 readers: maps a directory
/// index plus its expected shape to a [`Tensor`] (copying or zero-copy).
type Materialize<'a> = &'a dyn Fn(usize, &[usize]) -> Result<Tensor, SnapshotError>;

/// v3/v4 PECAN reader: materializes each referenced section as a
/// [`Tensor`] through `materialize` (copying or zero-copy, the caller
/// decides) and builds the engine with [`LayerLut::from_borrowed_tables`].
/// v4 tables are wrapped as they are; v3 tables (`[cout, p]`) are
/// transposed once, so only the copying loader may read v3.
fn read_pecan_sectioned(
    r: &mut Reader<'_>,
    conv: bool,
    version: u32,
    materialize: Materialize<'_>,
) -> Result<(LayerLut, Option<Conv2dGeometry>), SnapshotError> {
    let (variant, config, c_out, has_bias, geom) = read_pecan_scalars(r, conv)?;
    let (dim, groups, prototypes) =
        (config.dim(), config.groups(), config.prototypes());
    let mut cams = Vec::with_capacity(groups);
    let mut tables = Vec::with_capacity(groups);
    for _ in 0..groups {
        let rows_idx = r.usize()?;
        let table_idx = r.usize()?;
        cams.push(materialize(rows_idx, &[prototypes, dim])?);
        let table = if version >= 4 {
            LookupTable::from_prototype_rows(materialize(table_idx, &[prototypes, c_out])?)
        } else {
            LookupTable::new(materialize(table_idx, &[c_out, prototypes])?)
        };
        tables.push(table.map_err(|e| SnapshotError::Corrupt(e.to_string()))?);
    }
    let bias = if has_bias {
        let idx = r.usize()?;
        Some(materialize(idx, &[c_out])?)
    } else {
        None
    };
    let lut = LayerLut::from_borrowed_tables(variant, config, cams, tables, bias)
        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
    Ok((lut, geom))
}

fn write_stage(w: &mut Writer, sections: Option<&mut SectionWriter>, stage: &dyn Stage) {
    let any = stage.as_any();
    if any.downcast_ref::<ReluStage>().is_some() {
        w.u8(TAG_RELU);
    } else if let Some(pool) = any.downcast_ref::<MaxPoolStage>() {
        w.u8(TAG_MAXPOOL);
        w.usize(pool.kernel());
        w.usize(pool.stride());
    } else if any.downcast_ref::<GlobalAvgPoolStage>().is_some() {
        w.u8(TAG_GAP);
    } else if any.downcast_ref::<FlattenStage>().is_some() {
        w.u8(TAG_FLATTEN);
    } else if let Some(conv) = any.downcast_ref::<LutConvStage>() {
        w.u8(TAG_CONV);
        match sections {
            Some(s) => write_pecan_sectioned(w, s, conv.lut_engine(), Some(conv.geometry())),
            None => write_pecan(w, conv.lut_engine(), Some(conv.geometry())),
        }
    } else if let Some(lin) = any.downcast_ref::<LutLinearStage>() {
        w.u8(TAG_LINEAR);
        match sections {
            Some(s) => write_pecan_sectioned(w, s, lin.lut_engine(), None),
            None => write_pecan(w, lin.lut_engine(), None),
        }
    } else {
        unreachable!("every compiled stage kind has a snapshot tag");
    }
}

// --------------------------------------------------------- v3/v4 sections

/// One entry of the v3/v4 section directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Byte offset of the section from the start of the file (64-aligned).
    pub offset: u64,
    /// Unpadded payload length in bytes (a multiple of 4).
    pub byte_len: u64,
    /// CRC-32 (IEEE) over the unpadded payload.
    pub crc: u32,
}

/// Parses and validates the v3/v4 header region: checks the header CRC,
/// reads the section directory, and returns the directory plus a reader
/// positioned at the model name (the tail).
fn read_sectioned_header(bytes: &[u8]) -> Result<(Vec<SectionInfo>, Reader<'_>), SnapshotError> {
    // magic(8) + version(4) + header_len(4) + count(4) + CRC(4)
    const MIN_HEADER: usize = 24;
    if bytes.len() < MIN_HEADER {
        return Err(SnapshotError::Truncated { needed: MIN_HEADER, available: bytes.len() });
    }
    let header_len =
        u32::from_le_bytes(bytes[12..16].try_into().expect("four bytes")) as usize;
    if header_len < MIN_HEADER || header_len > bytes.len() {
        return Err(SnapshotError::Corrupt(format!(
            "header length {header_len} outside file of {} bytes",
            bytes.len()
        )));
    }
    let stored = u32::from_le_bytes(
        bytes[header_len - 4..header_len].try_into().expect("four bytes"),
    );
    let computed = crc32(&bytes[..header_len - 4]);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let mut r = Reader { bytes: &bytes[..header_len - 4], pos: 16 };
    let count = r.usize()?;
    if count > SECTION_LIMIT {
        return Err(SnapshotError::Corrupt(format!("{count} sections")));
    }
    let mut dir = Vec::with_capacity(count);
    for i in 0..count {
        let offset = r.u64()?;
        let byte_len = r.u64()?;
        let crc = r.u32()?;
        let end = offset.checked_add(byte_len);
        if offset as usize % SECTION_ALIGN != 0
            || byte_len % 4 != 0
            || end.map_or(true, |e| e > bytes.len() as u64)
            || (offset as usize) < header_len
        {
            return Err(SnapshotError::Corrupt(format!(
                "section {i} spans [{offset}, {offset}+{byte_len}) in a file of {} bytes",
                bytes.len()
            )));
        }
        dir.push(SectionInfo { offset, byte_len, crc });
    }
    Ok((dir, r))
}

/// Decodes the v3/v4 tail (name, shapes, stages) of an already-validated
/// header, materializing sections through `materialize`.
fn read_sectioned_engine(
    mut r: Reader<'_>,
    version: u32,
    materialize: Materialize<'_>,
) -> Result<FrozenEngine, SnapshotError> {
    let name = r.name()?;
    let input_shape = r.dims(DIM_LIMIT)?;
    let output_shape = r.dims(DIM_LIMIT)?;
    let n_stages = r.usize()?;
    if n_stages > 4096 {
        return Err(SnapshotError::Corrupt(format!("{n_stages} stages")));
    }
    let mut stages: Vec<Box<dyn Stage>> = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        let stage: Box<dyn Stage> = match r.u8()? {
            TAG_RELU => Box::new(ReluStage),
            TAG_MAXPOOL => {
                let kernel = r.usize()?;
                let stride = r.usize()?;
                if kernel > DIM_LIMIT {
                    return Err(SnapshotError::Corrupt(format!(
                        "pool window {kernel}/{stride}"
                    )));
                }
                Box::new(
                    MaxPoolStage::new(kernel, stride)
                        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?,
                )
            }
            TAG_GAP => Box::new(GlobalAvgPoolStage),
            TAG_FLATTEN => Box::new(FlattenStage),
            TAG_CONV => {
                let (lut, geom) = read_pecan_sectioned(&mut r, true, version, materialize)?;
                Box::new(
                    LutConvStage::new(lut, geom.expect("conv payload carries geometry"))
                        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?,
                )
            }
            TAG_LINEAR => {
                let (lut, _) = read_pecan_sectioned(&mut r, false, version, materialize)?;
                Box::new(LutLinearStage::new(lut))
            }
            other => return Err(SnapshotError::Corrupt(format!("stage tag {other}"))),
        };
        stages.push(stage);
    }
    if r.pos != r.bytes.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after last stage",
            r.bytes.len() - r.pos
        )));
    }
    FrozenEngine::from_parts(stages, input_shape, output_shape, name)
        .map_err(|e| SnapshotError::Corrupt(e.to_string()))
}

/// Looks `idx` up in `dir` and validates its payload length against the
/// expected tensor shape.
fn section_entry<'d>(
    dir: &'d [SectionInfo],
    idx: usize,
    dims: &[usize],
) -> Result<&'d SectionInfo, SnapshotError> {
    let entry = dir.get(idx).ok_or_else(|| {
        SnapshotError::Corrupt(format!("section index {idx} outside a {}-entry directory", dir.len()))
    })?;
    let want = dims.iter().product::<usize>() as u64 * 4;
    if entry.byte_len != want {
        return Err(SnapshotError::Corrupt(format!(
            "section {idx} holds {} bytes, shape {dims:?} needs {want}",
            entry.byte_len
        )));
    }
    Ok(entry)
}

/// Copying v3/v4 loader: decodes every referenced section to the heap,
/// verifying its CRC. Used by [`FrozenEngine::from_snapshot_bytes`].
fn read_sectioned_copying(bytes: &[u8], version: u32) -> Result<FrozenEngine, SnapshotError> {
    let (dir, tail) = read_sectioned_header(bytes)?;
    let materialize = |idx: usize, dims: &[usize]| -> Result<Tensor, SnapshotError> {
        let e = section_entry(&dir, idx, dims)?;
        let payload = &bytes[e.offset as usize..(e.offset + e.byte_len) as usize];
        let computed = crc32(payload);
        if computed != e.crc {
            return Err(SnapshotError::ChecksumMismatch { stored: e.crc, computed });
        }
        Tensor::from_vec(decode_f32s(payload), dims)
            .map_err(|err| SnapshotError::Corrupt(err.to_string()))
    };
    read_sectioned_engine(tail, version, &materialize)
}

/// Zero-copy loader for the current revision (v4): every bulk tensor is a borrowed window into
/// `owner`'s buffer. `bytes` must be the same buffer `owner.f32s()` views
/// (the caller guarantees it — e.g. both sides of one memory map).
/// Section CRCs are checked only when `verify_sections` is set; the header
/// CRC is always checked.
pub(crate) fn engine_from_shared(
    owner: &Arc<dyn F32Source>,
    bytes: &[u8],
    verify_sections: bool,
) -> Result<FrozenEngine, SnapshotError> {
    if bytes.len() != owner.f32s().len() * 4 {
        return Err(SnapshotError::Corrupt(format!(
            "shared source of {} scalars does not cover the {}-byte file",
            owner.f32s().len(),
            bytes.len()
        )));
    }
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
        return Err(SnapshotError::Truncated {
            needed: SNAPSHOT_MAGIC.len() + 4,
            available: bytes.len(),
        });
    }
    if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("four bytes"));
    // Only v4 stores every section in runtime layout; a v3 table would
    // need a transpose, so v3 files take the copying loader.
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let (dir, tail) = read_sectioned_header(bytes)?;
    let materialize = |idx: usize, dims: &[usize]| -> Result<Tensor, SnapshotError> {
        let e = section_entry(&dir, idx, dims)?;
        if verify_sections {
            let payload = &bytes[e.offset as usize..(e.offset + e.byte_len) as usize];
            let computed = crc32(payload);
            if computed != e.crc {
                return Err(SnapshotError::ChecksumMismatch { stored: e.crc, computed });
            }
        }
        Tensor::from_shared(Arc::clone(owner), e.offset as usize / 4, dims)
            .map_err(|err| SnapshotError::Corrupt(err.to_string()))
    };
    read_sectioned_engine(tail, version, &materialize)
}

// ------------------------------------------------------------ inspection

/// Structural metadata of a snapshot file, decoded without building the
/// engine — the `snapshot-tool info` view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format revision of the file.
    pub version: u32,
    /// Embedded model name (v2+).
    pub name: Option<String>,
    /// Declared per-sample input shape.
    pub input_shape: Vec<usize>,
    /// Declared per-sample output shape.
    pub output_shape: Vec<usize>,
    /// Declared stage count.
    pub stage_count: usize,
    /// Total file length in bytes.
    pub file_len: usize,
    /// v3/v4 section directory (empty for v1/v2).
    pub sections: Vec<SectionInfo>,
}

/// Decodes a snapshot's structural metadata — version, name, shapes, stage
/// count and (v3/v4) the section directory — verifying the header checksum
/// (v3/v4) or the whole-file checksum (v1/v2) but not decoding stage
/// payloads.
///
/// # Errors
///
/// Any [`SnapshotError`] variant; see the module docs.
pub fn inspect_snapshot_bytes(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
        return Err(SnapshotError::Truncated {
            needed: SNAPSHOT_MAGIC.len() + 4,
            available: bytes.len(),
        });
    }
    if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("four bytes"));
    if version == 0 || version > SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    if version >= 3 {
        let (sections, mut r) = read_sectioned_header(bytes)?;
        let name = r.name()?;
        let input_shape = r.dims(DIM_LIMIT)?;
        let output_shape = r.dims(DIM_LIMIT)?;
        let stage_count = r.usize()?;
        return Ok(SnapshotInfo {
            version,
            name,
            input_shape,
            output_shape,
            stage_count,
            file_len: bytes.len(),
            sections,
        });
    }
    const TRAILER: usize = 4;
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 + TRAILER {
        return Err(SnapshotError::Truncated {
            needed: SNAPSHOT_MAGIC.len() + 4 + TRAILER,
            available: bytes.len(),
        });
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - TRAILER);
    let stored = u32::from_le_bytes(trailer.try_into().expect("four bytes"));
    let computed = crc32(payload);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let mut r = Reader { bytes: payload, pos: SNAPSHOT_MAGIC.len() + 4 };
    let name = if version >= 2 { r.name()? } else { None };
    let input_shape = r.dims(DIM_LIMIT)?;
    let output_shape = r.dims(DIM_LIMIT)?;
    let stage_count = r.usize()?;
    Ok(SnapshotInfo {
        version,
        name,
        input_shape,
        output_shape,
        stage_count,
        file_len: bytes.len(),
        sections: Vec::new(),
    })
}

impl FrozenEngine {
    /// Serializes the engine into the current snapshot byte format.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot_bytes_versioned(SNAPSHOT_VERSION)
            .expect("the current version always encodes")
    }

    /// Serializes the engine as a specific format revision — version 1
    /// for files the oldest reader can load (drops the model name),
    /// version 2 for the sequential named format, version 3 for the
    /// section-directory format with `[cout, p]` tables, version 4 for
    /// the current one with prototype-major `[p, cout]` tables. Versions
    /// 1–3 transpose every table on write.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`] for revisions this build
    /// does not write.
    pub fn snapshot_bytes_versioned(&self, version: u32) -> Result<Vec<u8>, SnapshotError> {
        if version == 0 || version > SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        if version >= 3 {
            return Ok(self.snapshot_bytes_sectioned(version));
        }
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        w.u32(version);
        if version >= 2 {
            self.write_name(&mut w);
        }
        w.dims(&self.input_shape);
        w.dims(&self.output_shape);
        w.usize(self.stages.len());
        for stage in &self.stages {
            write_stage(&mut w, None, stage.as_ref());
        }
        let crc = crc32(&w.buf);
        w.u32(crc);
        Ok(w.buf)
    }

    /// Writes the length-prefixed model name, clamping over-long names on
    /// a char boundary — a mid-character cut would write a header this
    /// build's own loader rejects.
    fn write_name(&self, w: &mut Writer) {
        let name = self.name().unwrap_or("");
        let mut end = name.len().min(NAME_LIMIT);
        while !name.is_char_boundary(end) {
            end -= 1;
        }
        let bytes = &name.as_bytes()[..end];
        w.usize(bytes.len());
        w.buf.extend_from_slice(bytes);
    }

    /// Assembles the v3/v4 layout: encode the tail while collecting
    /// section payloads, lay the sections out 64-aligned after the header,
    /// then stamp the directory and header CRC.
    fn snapshot_bytes_sectioned(&self, version: u32) -> Vec<u8> {
        let mut tail = Writer { buf: Vec::new() };
        let mut sections = SectionWriter { version, payloads: Vec::new() };
        self.write_name(&mut tail);
        tail.dims(&self.input_shape);
        tail.dims(&self.output_shape);
        tail.usize(self.stages.len());
        for stage in &self.stages {
            write_stage(&mut tail, Some(&mut sections), stage.as_ref());
        }
        let n = sections.payloads.len();
        // magic(8) + version(4) + header_len(4) + count(4) + dir + tail + CRC(4)
        let header_len = 20 + n * 20 + tail.buf.len() + 4;
        let mut cursor = align_up(header_len);
        let mut dir = Vec::with_capacity(n);
        for p in &sections.payloads {
            dir.push(SectionInfo {
                offset: cursor as u64,
                byte_len: p.len() as u64,
                crc: crc32(p),
            });
            cursor = align_up(cursor + p.len());
        }
        let file_len = cursor.max(align_up(header_len));
        let mut w = Writer { buf: Vec::with_capacity(file_len) };
        w.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        w.u32(version);
        w.usize(header_len);
        w.usize(n);
        for e in &dir {
            w.u64(e.offset);
            w.u64(e.byte_len);
            w.u32(e.crc);
        }
        w.buf.extend_from_slice(&tail.buf);
        let crc = crc32(&w.buf);
        w.u32(crc);
        debug_assert_eq!(w.buf.len(), header_len);
        for (e, p) in dir.iter().zip(&sections.payloads) {
            w.buf.resize(e.offset as usize, 0);
            w.buf.extend_from_slice(p);
        }
        w.buf.resize(file_len, 0);
        w.buf
    }

    /// Writes the snapshot to `path` (see the module docs for the format).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file cannot be written.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        fs::write(path, self.snapshot_bytes())?;
        Ok(())
    }

    /// Decodes an engine from snapshot bytes (any supported version) via
    /// the copying path — every bulk section is decoded to the heap and
    /// its checksum verified.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] variant; see the module docs. The returned
    /// engine is bit-identical to the one that produced the bytes.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        const TRAILER: usize = 4;
        if bytes.len() < SNAPSHOT_MAGIC.len() + 4 + TRAILER {
            return Err(SnapshotError::Truncated {
                needed: SNAPSHOT_MAGIC.len() + 4 + TRAILER,
                available: bytes.len(),
            });
        }
        if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        // Version is checked before any checksum so a snapshot from a future
        // format revision reports *version*, not a spurious bit-rot error —
        // future revisions may checksum differently.
        let version =
            u32::from_le_bytes(bytes[8..12].try_into().expect("four bytes"));
        if version == 0 || version > SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        if version >= 3 {
            return read_sectioned_copying(bytes, version);
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - TRAILER);
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let computed = crc32(payload);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let mut r = Reader { bytes: payload, pos: SNAPSHOT_MAGIC.len() + 4 };
        let name = if version >= 2 { r.name()? } else { None };
        let input_shape = r.dims(DIM_LIMIT)?;
        let output_shape = r.dims(DIM_LIMIT)?;
        let n_stages = r.usize()?;
        if n_stages > 4096 {
            return Err(SnapshotError::Corrupt(format!("{n_stages} stages")));
        }
        let mut stages: Vec<Box<dyn Stage>> = Vec::with_capacity(n_stages);
        for _ in 0..n_stages {
            let stage: Box<dyn Stage> = match r.u8()? {
                TAG_RELU => Box::new(ReluStage),
                TAG_MAXPOOL => {
                    let kernel = r.usize()?;
                    let stride = r.usize()?;
                    if kernel > DIM_LIMIT {
                        return Err(SnapshotError::Corrupt(format!(
                            "pool window {kernel}/{stride}"
                        )));
                    }
                    Box::new(
                        MaxPoolStage::new(kernel, stride)
                            .map_err(|e| SnapshotError::Corrupt(e.to_string()))?,
                    )
                }
                TAG_GAP => Box::new(GlobalAvgPoolStage),
                TAG_FLATTEN => Box::new(FlattenStage),
                TAG_CONV => {
                    let (lut, geom) = read_pecan(&mut r, true)?;
                    Box::new(
                        LutConvStage::new(
                            lut,
                            geom.expect("conv payload carries geometry"),
                        )
                        .map_err(|e| SnapshotError::Corrupt(e.to_string()))?,
                    )
                }
                TAG_LINEAR => {
                    let (lut, _) = read_pecan(&mut r, false)?;
                    Box::new(LutLinearStage::new(lut))
                }
                other => {
                    return Err(SnapshotError::Corrupt(format!("stage tag {other}")))
                }
            };
            stages.push(stage);
        }
        if r.pos != payload.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after last stage",
                payload.len() - r.pos
            )));
        }
        FrozenEngine::from_parts(stages, input_shape, output_shape, name)
            .map_err(|e| SnapshotError::Corrupt(e.to_string()))
    }

    /// Reads a snapshot file written by [`FrozenEngine::save_snapshot`]
    /// (or any earlier format revision) via the copying path.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] variant; see the module docs.
    pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Self::from_snapshot_bytes(&fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn snapshot_bytes_start_with_magic_and_version() {
        let engine = crate::demo::mlp_engine(1);
        let bytes = engine.snapshot_bytes();
        assert_eq!(&bytes[..8], b"PECANSNP");
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), SNAPSHOT_VERSION);
        // v2 places the name immediately after the version.
        let v2 = engine.snapshot_bytes_versioned(2).unwrap();
        let name_len = u32::from_le_bytes(v2[12..16].try_into().unwrap()) as usize;
        assert_eq!(&v2[16..16 + name_len], b"mlp");
    }

    #[test]
    fn v3_layout_is_aligned_and_self_describing() {
        let engine = crate::demo::mlp_engine(1);
        // v3 and v4 share the sectioned container.
        for version in [3, SNAPSHOT_VERSION] {
            let bytes = engine.snapshot_bytes_versioned(version).unwrap();
            assert_eq!(bytes.len() % SECTION_ALIGN, 0);
            let info = inspect_snapshot_bytes(&bytes).unwrap();
            assert_eq!(info.version, version);
            assert_eq!(info.name.as_deref(), Some("mlp"));
            assert_eq!(info.stage_count, engine.stage_count());
            assert!(!info.sections.is_empty());
            for s in &info.sections {
                assert_eq!(s.offset as usize % SECTION_ALIGN, 0);
                assert_eq!(s.byte_len % 4, 0);
                let payload = &bytes[s.offset as usize..(s.offset + s.byte_len) as usize];
                assert_eq!(crc32(payload), s.crc);
            }
        }
    }

    #[test]
    fn v4_tables_are_prototype_major_and_v3_tables_output_major() {
        let engine = crate::demo::mlp_engine(2);
        let lut = engine.stages().iter().find_map(|s| s.lut()).unwrap();
        let table = &lut.luts()[0];
        // Section order per group: CAM rows, then the table.
        let section = |version: u32| {
            let bytes = engine.snapshot_bytes_versioned(version).unwrap();
            let s = inspect_snapshot_bytes(&bytes).unwrap().sections[1];
            decode_f32s(&bytes[s.offset as usize..(s.offset + s.byte_len) as usize])
        };
        assert_eq!(section(4), table.prototype_rows().data());
        assert_eq!(section(3), table.table().data());
        assert_ne!(section(3), section(4));
    }

    #[test]
    fn oversized_names_clamp_on_a_char_boundary() {
        // 4095 ASCII bytes + a 2-byte char straddling the limit: the write
        // must clamp to 4095, and the snapshot must load back cleanly.
        let long = "a".repeat(NAME_LIMIT - 1) + "é";
        let engine = crate::demo::mlp_engine(1).with_name(long);
        let bytes = engine.snapshot_bytes_versioned(2).unwrap();
        let name_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        assert_eq!(name_len, NAME_LIMIT - 1);
        let reloaded = FrozenEngine::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(reloaded.name(), Some("a".repeat(NAME_LIMIT - 1).as_str()));
        // v3 and v4 clamp identically.
        for version in [3, SNAPSHOT_VERSION] {
            let bytes = reloaded.snapshot_bytes_versioned(version).unwrap();
            let again = FrozenEngine::from_snapshot_bytes(&bytes).unwrap();
            assert_eq!(again.name(), reloaded.name());
        }
    }

    #[test]
    fn version_1_encoding_drops_the_name() {
        let engine = crate::demo::mlp_engine(1);
        let v1 = engine.snapshot_bytes_versioned(1).unwrap();
        assert_eq!(u32::from_le_bytes(v1[8..12].try_into().unwrap()), 1);
        let loaded = FrozenEngine::from_snapshot_bytes(&v1).unwrap();
        assert_eq!(loaded.name(), None);
        assert!(matches!(
            engine.snapshot_bytes_versioned(SNAPSHOT_VERSION + 1),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn v3_round_trips_bit_identically_from_shared_and_copying_paths() {
        let engine = crate::demo::lenet_engine(7);
        let bytes = engine.snapshot_bytes();
        let input = vec![0.125f32; engine.input_len()];
        let want = engine.predict(&input).unwrap();

        let v3 = engine.snapshot_bytes_versioned(3).unwrap();
        for file in [&v3, &bytes] {
            let copied = FrozenEngine::from_snapshot_bytes(file).unwrap();
            assert_eq!(copied.predict(&input).unwrap(), want);
        }
        // The zero-copy loader never reads v3's `[cout, p]` tables as rows.
        let v3_scalars: Arc<dyn F32Source> = Arc::new(decode_f32s(&v3));
        assert!(matches!(
            engine_from_shared(&v3_scalars, &v3, true),
            Err(SnapshotError::UnsupportedVersion { found: 3 })
        ));

        // Zero-copy: build over an f32 view of the same bytes. The engine's
        // bulk tensors must be borrowed views, not heap copies.
        let scalars: Arc<dyn F32Source> = Arc::new(decode_f32s(&bytes));
        let shared = engine_from_shared(&scalars, &bytes, true).unwrap();
        assert_eq!(shared.predict(&input).unwrap(), want);
        let mut shared_tensors = 0;
        for stage in shared.stages() {
            if let Some(lut) = stage.lut() {
                for rows in lut.cam_rows() {
                    assert!(rows.is_shared(), "CAM rows must borrow the source");
                    shared_tensors += 1;
                }
                for t in lut.luts() {
                    assert!(t.prototype_rows().is_shared(), "tables must borrow the source");
                    shared_tensors += 1;
                }
            }
        }
        assert!(shared_tensors > 0);
    }

    #[test]
    fn shared_load_detects_section_corruption_only_when_verifying() {
        let engine = crate::demo::mlp_engine(3);
        let mut bytes = engine.snapshot_bytes();
        let info = inspect_snapshot_bytes(&bytes).unwrap();
        let first = info.sections[0];
        bytes[first.offset as usize] ^= 0xFF;
        // Copying path always checks section CRCs.
        assert!(matches!(
            FrozenEngine::from_snapshot_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        let scalars: Arc<dyn F32Source> = Arc::new(decode_f32s(&bytes));
        assert!(matches!(
            engine_from_shared(&scalars, &bytes, true),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // The fast open skips section CRCs by design (the header still
        // validates) — corruption surfaces as different bits, not an error.
        assert!(engine_from_shared(&scalars, &bytes, false).is_ok());
    }
}
