//! Versioned binary snapshots: a trained [`GraphHdModel`] as a
//! deployable artifact.
//!
//! The VS-Graph and FPGA-GraphHD follow-ups both treat the trained
//! associative memory as the thing you ship; this module gives the suite
//! the same property without external dependencies. A snapshot stores the
//! full configuration (the basis item memory is a pure function of
//! `(seed, dim)`, so it is *not* stored), plus the packed class vectors.
//! Every multi-byte field is written little-endian regardless of host, so
//! snapshots are bit-portable across machines; a magic and a format
//! version make foreign or future files fail loudly instead of decoding
//! into garbage.
//!
//! Layout of format version 2 (all integers little-endian):
//!
//! ```text
//! [0..8)    magic            b"GRAPHHD\0"
//! [8..12)   format version   u32 (currently 2)
//! [12..20)  dim              u64
//! [20..28)  item-memory seed u64
//! [28]      centrality tag   u8  (0 PageRank, 1 Degree, 2 VertexId)
//! [29]      tie-break tag    u8  (0 Positive, 1 Negative, 2 Seeded)
//! [30..38)  tie-break seed   u64 (0 unless tag is Seeded)
//! [38..46)  pagerank iters   u64
//! [46..54)  pagerank damping f64 (IEEE-754 bits)
//! [54]      encoder tag      u8  (0 Centrality, 1 VertexSimilarity,
//!                                 2 EdgeWeighted)
//! [55..63)  encoder param    u64 (0 / levels / weight cap)
//! [63..71)  num_classes      u64
//! [71..)    class vectors    num_classes × ⌈dim/64⌉ × u64 packed words
//! ```
//!
//! Version 1 files — identical except that the two encoder fields are
//! absent (`num_classes` starts at offset 54) — still load, and decode
//! as the GraphHD centrality strategy, the only encoder that existed
//! when they were written.
//!
//! # Crash safety
//!
//! [`save`](GraphHdModel::save) never writes the destination in place:
//! it writes a temporary sibling, fsyncs it, atomically renames it over
//! the destination, and fsyncs the containing directory, so a crash at
//! any instant leaves either the complete old file or the complete new
//! file — never a torn one. [`save_version`](GraphHdModel::save_version)
//! and [`load_latest`](GraphHdModel::load_latest) build rollback on top:
//! each save publishes a fresh `model.v{N}.ghd` sibling (pruned to the
//! last K), and loading scans versions newest-first, falling back past
//! any snapshot that fails validation. The `snapshot.write` and
//! `snapshot.rename` fail points (see `docs/RESILIENCE.md`) let the
//! chaos suite kill a save at each boundary and prove the recovery
//! claim.

use crate::error::SnapshotError;
use crate::{CentralityKind, EncoderKind, Error, GraphEncoder, GraphHdConfig, GraphHdModel};
use faultpoint::fail_point;
use graphcore::PageRankConfig;
use hdvec::{Hypervector, TieBreak};
use std::ffi::OsString;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The 8-byte magic every GraphHD snapshot starts with.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"GRAPHHD\0";

/// The snapshot format version this build writes. Version 1 files (the
/// pre-strategy format without encoder fields) are still readable.
pub const SNAPSHOT_VERSION: u32 = 2;

/// The pre-strategy snapshot format, accepted on load for backward
/// compatibility.
const SNAPSHOT_VERSION_V1: u32 = 1;

fn centrality_tag(kind: CentralityKind) -> u8 {
    match kind {
        CentralityKind::PageRank => 0,
        CentralityKind::Degree => 1,
        CentralityKind::VertexId => 2,
    }
}

fn centrality_from_tag(tag: u8) -> Result<CentralityKind, SnapshotError> {
    match tag {
        0 => Ok(CentralityKind::PageRank),
        1 => Ok(CentralityKind::Degree),
        2 => Ok(CentralityKind::VertexId),
        _ => Err(SnapshotError::Corrupt {
            what: "centrality tag",
        }),
    }
}

fn encoder_fields(kind: EncoderKind) -> (u8, u64) {
    match kind {
        EncoderKind::Centrality => (0, 0),
        EncoderKind::VertexSimilarity { levels } => (1, u64::from(levels)),
        EncoderKind::EdgeWeighted { weight_cap } => (2, u64::from(weight_cap)),
    }
}

fn encoder_from_fields(tag: u8, param: u64) -> Result<EncoderKind, SnapshotError> {
    let corrupt = SnapshotError::Corrupt {
        what: "encoder fields",
    };
    let kind = match tag {
        // A non-zero parameter on the parameterless strategy means the
        // header bytes are shifted or damaged; refuse, as for tie-breaks.
        0 if param == 0 => EncoderKind::Centrality,
        0 => return Err(corrupt),
        1 => EncoderKind::VertexSimilarity {
            levels: u32::try_from(param).map_err(|_| corrupt)?,
        },
        2 => EncoderKind::EdgeWeighted {
            weight_cap: u32::try_from(param).map_err(|_| corrupt)?,
        },
        _ => {
            return Err(SnapshotError::Corrupt {
                what: "encoder tag",
            })
        }
    };
    // Out-of-range parameters (levels < 2, zero weight cap) fail the
    // same strategy validation the config builder applies.
    kind.validate().map_err(|_| corrupt)?;
    Ok(kind)
}

fn tie_break_fields(tie: TieBreak) -> (u8, u64) {
    match tie {
        TieBreak::Positive => (0, 0),
        TieBreak::Negative => (1, 0),
        TieBreak::Seeded(seed) => (2, seed),
    }
}

fn tie_break_from_fields(tag: u8, seed: u64) -> Result<TieBreak, SnapshotError> {
    match (tag, seed) {
        (0, 0) => Ok(TieBreak::Positive),
        (1, 0) => Ok(TieBreak::Negative),
        (2, seed) => Ok(TieBreak::Seeded(seed)),
        // A non-zero seed on a seedless policy means the header bytes are
        // shifted or damaged; refuse rather than silently dropping state.
        _ => Err(SnapshotError::Corrupt {
            what: "tie-break fields",
        }),
    }
}

/// Reads exactly `N` bytes, mapping a clean EOF to
/// [`SnapshotError::Truncated`] and any other failure to [`Error::Io`].
fn read_array<const N: usize, R: Read>(reader: &mut R) -> Result<[u8; N], Error> {
    let mut buf = [0u8; N];
    reader.read_exact(&mut buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Error::Snapshot(SnapshotError::Truncated)
        } else {
            Error::from(e)
        }
    })?;
    Ok(buf)
}

fn read_u8<R: Read>(reader: &mut R) -> Result<u8, Error> {
    Ok(read_array::<1, _>(reader)?[0])
}

fn read_u32<R: Read>(reader: &mut R) -> Result<u32, Error> {
    Ok(u32::from_le_bytes(read_array::<4, _>(reader)?))
}

fn read_u64<R: Read>(reader: &mut R) -> Result<u64, Error> {
    Ok(u64::from_le_bytes(read_array::<8, _>(reader)?))
}

/// A `u64` header field that must fit in `usize` (snapshots written on a
/// 64-bit host must fail cleanly, not wrap, on a 32-bit one).
fn read_len<R: Read>(reader: &mut R, what: &'static str) -> Result<usize, Error> {
    usize::try_from(read_u64(reader)?).map_err(|_| Error::Snapshot(SnapshotError::Corrupt { what }))
}

/// The error an armed `error`-action fail point injects into a save.
fn injected_io(point: &str) -> Error {
    Error::Io {
        kind: std::io::ErrorKind::Other,
        message: format!("faultpoint: injected error at `{point}`"),
    }
}

/// A unique temporary sibling of `path` (same directory, so the final
/// rename never crosses a filesystem boundary). Uniqueness comes from
/// the pid plus a process-wide sequence number, so concurrent saves to
/// the same destination never clobber each other's partial writes.
fn temp_sibling(path: &Path) -> PathBuf {
    static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SAVE_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path
        .file_name()
        .map_or_else(|| OsString::from("snapshot"), OsString::from);
    name.push(format!(".tmp-{}-{seq}", std::process::id()));
    path.with_file_name(name)
}

/// Makes the rename that published `path` durable: fsync the containing
/// directory, so a power cut cannot roll the directory entry back.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> Result<(), Error> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()?;
    Ok(())
}

/// Non-unix stand-in: directories cannot portably be opened for
/// syncing; the atomic rename still guarantees old-or-new contents.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> Result<(), Error> {
    Ok(())
}

/// File-name shape of versioned snapshots: `model.v{N}.ghd`.
const VERSION_PREFIX: &str = "model.v";
/// Extension of versioned snapshots (shared with plain `.ghd` saves).
const VERSION_SUFFIX: &str = ".ghd";

fn version_path(dir: &Path, version: u64) -> PathBuf {
    dir.join(format!("{VERSION_PREFIX}{version}{VERSION_SUFFIX}"))
}

/// Parses `model.v{N}.ghd` back to `N`; anything else is not a
/// versioned snapshot (temp siblings, foreign files) and is ignored.
fn version_of(name: &str) -> Option<u64> {
    let digits = name
        .strip_prefix(VERSION_PREFIX)?
        .strip_suffix(VERSION_SUFFIX)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Every snapshot version present in `dir`, ascending.
fn list_versions(dir: &Path) -> Result<Vec<u64>, Error> {
    let mut versions = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        if let Some(v) = entry?.file_name().to_str().and_then(version_of) {
            versions.push(v);
        }
    }
    versions.sort_unstable();
    Ok(versions)
}

impl GraphHdModel {
    /// Serialises the model into `writer` in the versioned binary
    /// format (layout documented at the top of
    /// `crates/graphhd/src/snapshot.rs`; magic [`SNAPSHOT_MAGIC`],
    /// version [`SNAPSHOT_VERSION`], then config + packed class
    /// vectors, all little-endian).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if writing fails.
    pub fn save_to<W: Write>(&self, writer: &mut W) -> Result<(), Error> {
        let config = self.encoder().config();
        let (tie_tag, tie_seed) = tie_break_fields(config.tie_break);
        let (encoder_tag, encoder_param) = encoder_fields(config.encoder);
        writer.write_all(&SNAPSHOT_MAGIC)?;
        writer.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
        writer.write_all(&(config.dim as u64).to_le_bytes())?;
        writer.write_all(&config.seed.to_le_bytes())?;
        writer.write_all(&[centrality_tag(config.centrality), tie_tag])?;
        writer.write_all(&tie_seed.to_le_bytes())?;
        writer.write_all(&(config.pagerank.iterations as u64).to_le_bytes())?;
        writer.write_all(&config.pagerank.damping.to_bits().to_le_bytes())?;
        writer.write_all(&[encoder_tag])?;
        writer.write_all(&encoder_param.to_le_bytes())?;
        writer.write_all(&(self.num_classes() as u64).to_le_bytes())?;
        for class_vector in self.class_vectors() {
            for &word in class_vector.words() {
                writer.write_all(&word.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Saves the model to a file (see [`save_to`](Self::save_to))
    /// **atomically**: the bytes go to a temporary sibling that is
    /// fsynced, renamed over `path`, and sealed with a directory fsync.
    /// A crash at any point leaves either the old file or the new file
    /// intact — never a torn mixture — and failed saves clean up their
    /// temporary.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the file cannot be created, written,
    /// synced or renamed.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), Error> {
        let path = path.as_ref();
        let tmp = temp_sibling(path);
        self.write_and_swap(path, &tmp).inspect_err(|_| {
            // Never leave a partial temp sibling behind; removal of a
            // file that was never created is not a second failure.
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// The crash-ordered write sequence behind [`save`](Self::save):
    /// data must be durable before the rename publishes it, and the
    /// rename must be durable before the save reports success.
    fn write_and_swap(&self, path: &Path, tmp: &Path) -> Result<(), Error> {
        let file = File::create(tmp)?;
        fail_point!("snapshot.write", injected_io("snapshot.write"));
        let mut writer = BufWriter::new(&file);
        self.save_to(&mut writer)?;
        writer.flush()?;
        file.sync_all()?;
        fail_point!("snapshot.rename", injected_io("snapshot.rename"));
        std::fs::rename(tmp, path)?;
        sync_parent_dir(path)
    }

    /// Publishes the model as the next versioned snapshot in `dir`
    /// (`model.v{N}.ghd`, `N` one past the highest version present) and
    /// prunes all but the newest `keep` versions. `keep` of zero means
    /// never prune. Returns the version just written.
    ///
    /// Each version is written with the atomic [`save`](Self::save)
    /// sequence, and pruning is best-effort (a failed unlink never
    /// un-publishes the save), so a reader using
    /// [`load_latest`](Self::load_latest) always finds a complete
    /// model. Together they give rollback semantics: keep K versions,
    /// fall back to `N-1` when `N` is bad.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the directory cannot be scanned or the
    /// snapshot cannot be written, and [`Error::Internal`] if the
    /// version counter would overflow `u64` (practically unreachable).
    pub fn save_version<P: AsRef<Path>>(&self, dir: P, keep: usize) -> Result<u64, Error> {
        let dir = dir.as_ref();
        let versions = list_versions(dir)?;
        let next = match versions.last() {
            None => 1,
            Some(&latest) => latest.checked_add(1).ok_or(Error::Internal {
                what: "snapshot version counter overflow",
            })?,
        };
        self.save(version_path(dir, next))?;
        if keep > 0 {
            // `versions` predates the save, so it holds the candidates
            // for pruning; the newest keep-1 of them stay alongside the
            // version just written.
            for &stale in versions.iter().rev().skip(keep.saturating_sub(1)) {
                let _ = std::fs::remove_file(version_path(dir, stale));
            }
        }
        Ok(next)
    }

    /// Loads the newest readable versioned snapshot (`model.v{N}.ghd`)
    /// from `dir`, returning the model and its version.
    ///
    /// Versions are tried newest-first; one that fails to open or
    /// validate (e.g. a save killed between publishing and completing,
    /// or later corruption) is skipped in favour of the next-newest —
    /// the rollback path the chaos suite exercises by killing saves at
    /// the `snapshot.write`/`snapshot.rename` fail points.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] with
    /// [`NotFound`](std::io::ErrorKind::NotFound) if `dir` holds no
    /// versioned snapshot at all, and otherwise the error of the oldest
    /// candidate if every version failed to load.
    pub fn load_latest<P: AsRef<Path>>(dir: P) -> Result<(Self, u64), Error> {
        let dir = dir.as_ref();
        let mut versions = list_versions(dir)?;
        let mut last_err = Error::Io {
            kind: std::io::ErrorKind::NotFound,
            message: format!("no {VERSION_PREFIX}{{N}}{VERSION_SUFFIX} snapshot in directory"),
        };
        while let Some(version) = versions.pop() {
            match Self::load(version_path(dir, version)) {
                Ok(model) => return Ok((model, version)),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// Reads a model from `reader`, validating magic, version and every
    /// header field, and requiring the stream to end exactly after the
    /// declared payload.
    ///
    /// The loaded model predicts bit-identically to the saved one on any
    /// machine (the format is endian-stable and the basis item memory is
    /// re-derived from the stored seed). Its integer accumulators restart
    /// from the stored class vectors, so a subsequent
    /// [`retrain`](Self::retrain) refines the deployable artifact rather
    /// than resuming the original training counters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Snapshot`] for malformed input and [`Error::Io`]
    /// for read failures.
    pub fn load_from<R: Read>(reader: &mut R) -> Result<Self, Error> {
        if read_array::<8, _>(reader)? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic.into());
        }
        let version = read_u32(reader)?;
        if version != SNAPSHOT_VERSION && version != SNAPSHOT_VERSION_V1 {
            return Err(SnapshotError::UnsupportedVersion { found: version }.into());
        }
        let dim = read_len(reader, "dimension")?;
        let seed = read_u64(reader)?;
        let centrality = centrality_from_tag(read_u8(reader)?)?;
        let tie_tag = read_u8(reader)?;
        let tie_break = tie_break_from_fields(tie_tag, read_u64(reader)?)?;
        let iterations = read_len(reader, "pagerank iterations")?;
        let damping = f64::from_bits(read_u64(reader)?);
        if !damping.is_finite() {
            return Err(SnapshotError::Corrupt {
                what: "pagerank damping",
            }
            .into());
        }
        // Version 1 predates the strategy layer: no encoder fields, and
        // every v1 model was the centrality encoder.
        let encoder = if version == SNAPSHOT_VERSION_V1 {
            EncoderKind::Centrality
        } else {
            let tag = read_u8(reader)?;
            encoder_from_fields(tag, read_u64(reader)?)?
        };
        let num_classes = read_len(reader, "class count")?;
        if num_classes == 0 {
            return Err(SnapshotError::Corrupt {
                what: "class count",
            }
            .into());
        }

        let config = GraphHdConfig::builder()
            .dim(dim)
            .seed(seed)
            .centrality(centrality)
            .with_encoder(encoder)
            .tie_break(tie_break)
            .pagerank(PageRankConfig {
                damping,
                iterations,
            })
            .build()
            // The encoder fields passed their own checks above, but the
            // builder also bounds the similarity depth by the dimension.
            .map_err(|e| {
                let what = match e {
                    Error::InvalidEncoderConfig { .. } => "encoder fields",
                    _ => "dimension",
                };
                Error::Snapshot(SnapshotError::Corrupt { what })
            })?;

        let words_per_vector = dim.div_ceil(64);
        // The declared payload size must be computable without overflow:
        // a header whose classes × words × 8 exceeds u64 describes no
        // file that can exist, so refuse it before trusting any length
        // arithmetic derived from it.
        let payload_bytes = (num_classes as u64)
            .checked_mul(words_per_vector as u64)
            .and_then(|words| words.checked_mul(8))
            .ok_or(Error::Snapshot(SnapshotError::Corrupt {
                what: "payload size",
            }))?;
        // Bound every payload read by that declared size: even if the
        // word loop drifted out of step with the header, it could not
        // read past the payload and misdecode trailing bytes as data.
        let mut payload = reader.by_ref().take(payload_bytes);
        // Header lengths are untrusted until the payload bytes actually
        // arrive: capacity hints are clamped so a forged multi-exabyte
        // `dim`/`num_classes` surfaces as `Truncated` on the first
        // missing word instead of aborting the process in the allocator.
        const PREALLOC_CAP: usize = 1 << 16;
        let mut class_vectors = Vec::with_capacity(num_classes.min(PREALLOC_CAP));
        for _ in 0..num_classes {
            let mut words = Vec::with_capacity(words_per_vector.min(PREALLOC_CAP));
            for _ in 0..words_per_vector {
                words.push(read_u64(&mut payload)?);
            }
            // Bits past `dim` in the last word must be zero — every
            // in-memory hypervector keeps that invariant, and the word
            // kernels rely on it.
            let tail_bits = dim % 64;
            if tail_bits != 0 && words[words_per_vector - 1] >> tail_bits != 0 {
                return Err(SnapshotError::Corrupt {
                    what: "class vector tail bits",
                }
                .into());
            }
            class_vectors.push(Hypervector::from_words(dim, words).map_err(Error::from)?);
        }

        // Release the payload bound; the probe below must see the
        // underlying stream to detect trailing bytes.
        let _ = payload.into_inner();
        // The payload length is declared by the header; anything after it
        // means the file is not what the header claims.
        let mut probe = [0u8; 1];
        match reader.read(&mut probe) {
            Ok(0) => {}
            Ok(_) => return Err(SnapshotError::TrailingBytes.into()),
            Err(e) => return Err(e.into()),
        }

        let encoder = GraphEncoder::new(config)?;
        Self::from_class_vectors(encoder, &class_vectors)
    }

    /// Loads a model from a file (see [`load_from`](Self::load_from)).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] if the file cannot be opened and
    /// [`Error::Snapshot`] if its contents are malformed.
    ///
    /// # Examples
    ///
    /// ```
    /// use graphhd::{GraphHdConfig, GraphHdModel};
    /// use graphcore::generate;
    ///
    /// let graphs = vec![generate::complete(8), generate::path(8)];
    /// let config = GraphHdConfig::builder().dim(512).build()?;
    /// let model = GraphHdModel::fit(config, &graphs, &[0, 1], 2)?;
    ///
    /// let path = std::env::temp_dir().join("graphhd-doctest.ghd");
    /// model.save(&path)?;
    /// let restored = GraphHdModel::load(&path)?;
    /// std::fs::remove_file(&path)?;
    ///
    /// assert_eq!(restored.class_vectors(), model.class_vectors());
    /// assert_eq!(
    ///     restored.predict(&generate::complete(10)),
    ///     model.predict(&generate::complete(10)),
    /// );
    /// # Ok::<(), graphhd::Error>(())
    /// ```
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, Error> {
        let mut reader = BufReader::new(File::open(path)?);
        Self::load_from(&mut reader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::generate;

    fn trained(dim: usize) -> GraphHdModel {
        let mut graphs = Vec::new();
        let mut labels = Vec::new();
        for n in 6..14 {
            graphs.push(generate::complete(n));
            labels.push(0);
            graphs.push(generate::path(n));
            labels.push(1);
            graphs.push(generate::star(n));
            labels.push(2);
        }
        let config = GraphHdConfig::builder()
            .dim(dim)
            .seed(0xBEEF)
            .tie_break(TieBreak::Seeded(17))
            .build()
            .expect("valid dimension");
        GraphHdModel::fit(config, &graphs, &labels, 3).expect("valid inputs")
    }

    fn snapshot_bytes(model: &GraphHdModel) -> Vec<u8> {
        let mut bytes = Vec::new();
        model.save_to(&mut bytes).expect("in-memory write");
        bytes
    }

    #[test]
    fn round_trip_preserves_config_and_vectors() {
        for dim in [63usize, 64, 65, 1024] {
            let model = trained(dim);
            let bytes = snapshot_bytes(&model);
            let restored = GraphHdModel::load_from(&mut bytes.as_slice()).expect("valid snapshot");
            assert_eq!(
                restored.encoder().config(),
                model.encoder().config(),
                "dim {dim}"
            );
            assert_eq!(restored.class_vectors(), model.class_vectors(), "dim {dim}");
            // Predictions agree on fresh graphs.
            for n in 5..20 {
                let g = generate::cycle(n);
                assert_eq!(restored.predict(&g), model.predict(&g), "dim {dim} n {n}");
            }
        }
    }

    #[test]
    fn snapshot_size_matches_declared_layout() {
        let model = trained(63);
        let bytes = snapshot_bytes(&model);
        // Header is 71 bytes; 63 dims pack into one word per class.
        assert_eq!(bytes.len(), 71 + 3 * 8);
        assert_eq!(&bytes[..8], &SNAPSHOT_MAGIC);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
            SNAPSHOT_VERSION
        );
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = snapshot_bytes(&trained(64));
        bytes[0] ^= 0xFF;
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::BadMagic)
        );
    }

    #[test]
    fn rejects_unknown_version() {
        let mut bytes = snapshot_bytes(&trained(64));
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::UnsupportedVersion { found: 99 })
        );
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let bytes = snapshot_bytes(&trained(65));
        // Cut inside the magic, the header (including the encoder and
        // class-count fields), and the payload.
        for cut in [3usize, 20, 40, 58, 66, bytes.len() - 1] {
            assert_eq!(
                GraphHdModel::load_from(&mut bytes[..cut].as_ref()).unwrap_err(),
                Error::Snapshot(SnapshotError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = snapshot_bytes(&trained(64));
        bytes.push(0);
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::TrailingBytes)
        );
    }

    #[test]
    fn rejects_corrupt_header_fields() {
        let model = trained(64);
        // Centrality tag out of range.
        let mut bytes = snapshot_bytes(&model);
        bytes[28] = 9;
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::Corrupt {
                what: "centrality tag"
            })
        );
        // Tie-break tag out of range.
        let mut bytes = snapshot_bytes(&model);
        bytes[29] = 7;
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::Corrupt {
                what: "tie-break fields"
            })
        );
        // Non-finite damping.
        let mut bytes = snapshot_bytes(&model);
        bytes[46..54].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::Corrupt {
                what: "pagerank damping"
            })
        );
        // Encoder tag out of range.
        let mut bytes = snapshot_bytes(&model);
        bytes[54] = 9;
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::Corrupt {
                what: "encoder tag"
            })
        );
        // Non-zero parameter on the parameterless centrality encoder.
        let mut bytes = snapshot_bytes(&model);
        bytes[55..63].copy_from_slice(&7u64.to_le_bytes());
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::Corrupt {
                what: "encoder fields"
            })
        );
        // Vertex-similarity depth below the minimum of 2 levels.
        let mut bytes = snapshot_bytes(&model);
        bytes[54] = 1;
        bytes[55..63].copy_from_slice(&1u64.to_le_bytes());
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::Corrupt {
                what: "encoder fields"
            })
        );
        // Zero classes.
        let mut bytes = snapshot_bytes(&model);
        bytes[63..71].copy_from_slice(&0u64.to_le_bytes());
        // (payload still present -> either corrupt count or trailing data;
        // the count check fires first)
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::Corrupt {
                what: "class count"
            })
        );
        // Zero dimension.
        let mut bytes = snapshot_bytes(&model);
        bytes[12..20].copy_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::Corrupt { what: "dimension" })
        );
    }

    #[test]
    fn forged_huge_header_lengths_fail_cleanly_not_in_the_allocator() {
        // dim = 2^60 passes the numeric header checks; the payload is
        // absent, so the load must report Truncated (after clamped,
        // harmless preallocation) rather than aborting on an
        // exabyte-scale `Vec::with_capacity`.
        let mut bytes = snapshot_bytes(&trained(64));
        bytes[12..20].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let err = GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err, Error::Snapshot(SnapshotError::Truncated));
        // Same for a forged class count.
        let mut bytes = snapshot_bytes(&trained(64));
        bytes[63..71].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err, Error::Snapshot(SnapshotError::Truncated));
    }

    /// A hand-built 71-byte v2 snapshot header: one class, the
    /// vertex-similarity encoder at `levels`, and no class-vector payload.
    fn similarity_header(dim: u64, levels: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&dim.to_le_bytes());
        bytes.extend_from_slice(&7u64.to_le_bytes()); // item-memory seed
        bytes.push(0); // PageRank centrality
        bytes.push(0); // TieBreak::Positive
        bytes.extend_from_slice(&0u64.to_le_bytes()); // tie-break seed
        bytes.extend_from_slice(&10u64.to_le_bytes()); // pagerank iterations
        bytes.extend_from_slice(&0.85f64.to_bits().to_le_bytes());
        bytes.push(1); // VertexSimilarity
        bytes.extend_from_slice(&levels.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes()); // num_classes
        assert_eq!(bytes.len(), 71);
        bytes
    }

    #[test]
    fn forged_similarity_depth_is_corrupt_not_an_allocation_abort() {
        // A complete 79-byte v2 snapshot: dim 64, one class, and the
        // vertex-similarity encoder with levels = u32::MAX. The level
        // memory holds every level, so accepting this header would ask
        // the allocator for 2^32 hypervectors and abort the process.
        let mut bytes = similarity_header(64, u64::from(u32::MAX));
        bytes.extend_from_slice(&0u64.to_le_bytes()); // the one class vector
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::Corrupt {
                what: "encoder fields"
            })
        );
        // The largest depth the dimension supports still loads.
        bytes[55..63].copy_from_slice(&33u64.to_le_bytes());
        let model = GraphHdModel::load_from(&mut bytes.as_slice()).expect("valid snapshot");
        assert_eq!(
            model.encoder().config().encoder,
            EncoderKind::VertexSimilarity { levels: 33 }
        );
    }

    #[test]
    fn forged_level_table_size_is_corrupt_not_an_allocation_abort() {
        // dim 2^20 admits 2^19 + 1 levels by depth, a 64 GiB level table
        // the loader would build before reading any payload. The header
        // alone must be refused.
        let bytes = similarity_header(1 << 20, (1 << 19) + 1);
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::Corrupt {
                what: "encoder fields"
            })
        );
        // A shallow table at the same dimension still builds and loads.
        let mut bytes = similarity_header(1 << 20, 16);
        bytes.resize(bytes.len() + (1 << 17), 0); // one 2^20-bit class vector
        let model = GraphHdModel::load_from(&mut bytes.as_slice()).expect("valid snapshot");
        assert_eq!(
            model.encoder().config().encoder,
            EncoderKind::VertexSimilarity { levels: 16 }
        );
    }

    #[test]
    fn rejects_set_tail_bits() {
        let model = trained(63);
        let mut bytes = snapshot_bytes(&model);
        let last = bytes.len() - 1;
        bytes[last] |= 0x80; // bit 63 of a 63-dim vector's only word
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::Corrupt {
                what: "class vector tail bits"
            })
        );
    }

    #[test]
    fn round_trip_preserves_every_encoder_kind() {
        let graphs = vec![generate::complete(8), generate::path(8)];
        for kind in [
            EncoderKind::Centrality,
            EncoderKind::VertexSimilarity { levels: 12 },
            EncoderKind::EdgeWeighted { weight_cap: 3 },
        ] {
            let config = GraphHdConfig::builder()
                .dim(256)
                .with_encoder(kind)
                .build()
                .expect("valid config");
            let model = GraphHdModel::fit(config, &graphs, &[0, 1], 2).expect("valid inputs");
            let bytes = snapshot_bytes(&model);
            let restored = GraphHdModel::load_from(&mut bytes.as_slice()).expect("valid snapshot");
            assert_eq!(restored.encoder().config().encoder, kind);
            assert_eq!(restored.class_vectors(), model.class_vectors());
        }
    }

    #[test]
    fn version_1_snapshots_load_as_the_centrality_strategy() {
        // Reconstruct the pre-strategy layout: same header minus the nine
        // encoder bytes at [54..63), with the version field set to 1.
        let model = trained(64);
        let mut bytes = snapshot_bytes(&model);
        bytes.drain(54..63);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let restored = GraphHdModel::load_from(&mut bytes.as_slice()).expect("valid v1 snapshot");
        assert_eq!(restored.encoder().config(), model.encoder().config());
        assert_eq!(restored.encoder().config().encoder, EncoderKind::Centrality);
        assert_eq!(restored.class_vectors(), model.class_vectors());
    }

    #[test]
    fn overflowing_payload_size_is_corrupt_not_wrapped() {
        // A forged dim × forged class count makes classes × words × 8
        // overflow u64: the load must refuse the header arithmetic
        // itself, before any read is attempted with a wrapped length.
        let mut bytes = snapshot_bytes(&trained(64));
        bytes[12..20].copy_from_slice(&(1u64 << 60).to_le_bytes());
        bytes[63..71].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert_eq!(
            GraphHdModel::load_from(&mut bytes.as_slice()).unwrap_err(),
            Error::Snapshot(SnapshotError::Corrupt {
                what: "payload size"
            })
        );
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "graphhd-snap-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn atomic_save_replaces_existing_file_and_leaves_no_temp() {
        let dir = temp_dir("atomic");
        let path = dir.join("model.ghd");
        let old = trained(64);
        let new = trained(128);
        old.save(&path).expect("first save");
        new.save(&path).expect("replacing save");
        let loaded = GraphHdModel::load(&path).expect("valid snapshot");
        assert_eq!(loaded.class_vectors(), new.class_vectors());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("list dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("model.ghd")]);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn versioned_saves_number_sequentially_and_prune_to_keep() {
        let dir = temp_dir("versions");
        let model = trained(64);
        for expect in 1..=5u64 {
            assert_eq!(model.save_version(&dir, 3).expect("save"), expect);
        }
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .expect("list dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
            .collect();
        names.sort();
        assert_eq!(names, ["model.v3.ghd", "model.v4.ghd", "model.v5.ghd"]);
        let (loaded, version) = GraphHdModel::load_latest(&dir).expect("latest");
        assert_eq!(version, 5);
        assert_eq!(loaded.class_vectors(), model.class_vectors());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn load_latest_falls_back_past_a_corrupt_newest_version() {
        let dir = temp_dir("fallback");
        let good = trained(64);
        good.save_version(&dir, 0).expect("v1");
        good.save_version(&dir, 0).expect("v2");
        // Corrupt v2 as a torn write would: truncate it mid-payload.
        let v2 = dir.join("model.v2.ghd");
        let bytes = std::fs::read(&v2).expect("read v2");
        std::fs::write(&v2, &bytes[..bytes.len() - 3]).expect("truncate v2");
        let (loaded, version) = GraphHdModel::load_latest(&dir).expect("fallback");
        assert_eq!(version, 1);
        assert_eq!(loaded.class_vectors(), good.class_vectors());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn load_latest_on_an_empty_directory_reports_not_found() {
        let dir = temp_dir("empty");
        match GraphHdModel::load_latest(&dir).unwrap_err() {
            Error::Io { kind, .. } => assert_eq!(kind, std::io::ErrorKind::NotFound),
            other => panic!("expected Io/NotFound, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn loaded_model_supports_retraining() {
        let model = trained(256);
        let bytes = snapshot_bytes(&model);
        let mut restored = GraphHdModel::load_from(&mut bytes.as_slice()).expect("valid snapshot");
        let graphs: Vec<_> = (6..14)
            .flat_map(|n| [generate::complete(n), generate::path(n)])
            .collect();
        let labels: Vec<u32> = (0..graphs.len()).map(|i| (i % 2) as u32).collect();
        let encodings = restored.encoder().encode_all(&graphs);
        let report = restored.retrain(&encodings, &labels, 5);
        assert!(!report.epoch_errors.is_empty());
    }
}
