//! Versioned binary persistence for session stage artifacts.
//!
//! Three artifact kinds are persisted: the trained shared encoder
//! ([`TrainedEncoder`]), the source-side topology views including the GOMs
//! ([`TopologyViews`]), and the `Large`-tier top-k alignment candidates
//! ([`TopKRows`]).  Together they let a serving process warm-start — skip
//! orbit counting *and* training — from artifacts produced by another
//! process, and let a `Large`-tier run hand its candidate set to downstream
//! tooling without ever materialising the dense matrix.
//!
//! ## Format
//!
//! Little-endian throughout, with a common header:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"HTCB"
//! 4       2     format version (currently 1)
//! 6       1     artifact kind  (1 = encoder, 2 = topology views, 3 = top-k rows)
//! 7       ...   kind-specific payload
//! ```
//!
//! Floating-point payloads are raw IEEE-754 bit patterns
//! (`f64::to_le_bytes`), so a save/load round-trip is **bit-exact** and
//! preserves the workspace's determinism guarantees.  Loaders validate
//! structure exhaustively (magic, version, kind, shape consistency,
//! truncation) and surface problems as [`HtcError::Persistence`]; plain file
//! I/O failures surface as [`HtcError::Io`].

use crate::config::MAX_DIFFUSION_VIEWS;
use crate::error::HtcError;
use crate::session::{TopologyViews, TrainedEncoder, ViewKind};
use crate::topk::TopKRows;
use crate::Result;
use htc_linalg::{CsrMatrix, DenseMatrix};
use htc_nn::{Activation, GcnEncoder};
use htc_orbits::{GomSet, GomWeighting};
use std::path::Path;

const MAGIC: [u8; 4] = *b"HTCB";
const FORMAT_VERSION: u16 = 1;
const KIND_ENCODER: u8 = 1;
const KIND_VIEWS: u8 = 2;
const KIND_TOPK: u8 = 3;

const VIEWS_ORBITS: u8 = 0;
const VIEWS_LOW_ORDER: u8 = 1;
const VIEWS_DIFFUSION: u8 = 2;

fn activation_tag(activation: Activation) -> u8 {
    match activation {
        Activation::Identity => 0,
        Activation::Relu => 1,
        Activation::Tanh => 2,
        Activation::Sigmoid => 3,
    }
}

fn activation_from_tag(tag: u8) -> Result<Activation> {
    Ok(match tag {
        0 => Activation::Identity,
        1 => Activation::Relu,
        2 => Activation::Tanh,
        3 => Activation::Sigmoid,
        other => {
            return Err(HtcError::Persistence(format!(
                "unknown activation tag {other}"
            )))
        }
    })
}

fn weighting_tag(weighting: GomWeighting) -> u8 {
    match weighting {
        GomWeighting::Weighted => 0,
        GomWeighting::Binary => 1,
    }
}

fn weighting_from_tag(tag: u8) -> Result<GomWeighting> {
    Ok(match tag {
        0 => GomWeighting::Weighted,
        1 => GomWeighting::Binary,
        other => {
            return Err(HtcError::Persistence(format!(
                "unknown GOM weighting tag {other}"
            )))
        }
    })
}

/// Byte-buffer writer for the artifact payloads.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn with_header(kind: u8) -> Self {
        let mut w = Self { buf: Vec::new() };
        w.buf.extend_from_slice(&MAGIC);
        w.u16(FORMAT_VERSION);
        w.u8(kind);
        w
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64_slice(&mut self, vs: &[f64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn csr(&mut self, m: &CsrMatrix) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        self.u64(m.nnz() as u64);
        for (r, c, v) in m.triplets() {
            self.u64(r as u64);
            self.u64(c as u64);
            self.f64(v);
        }
    }

    fn write_to(self, path: &Path) -> Result<()> {
        std::fs::write(path, &self.buf)
            .map_err(|e| HtcError::Io(format!("writing {}: {e}", path.display())))
    }
}

/// Bounds-checked reader over a loaded artifact.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| HtcError::Persistence("artifact is truncated".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u64` counting elements that *follow* in the payload, where each
    /// element occupies at least `elem_bytes` encoded bytes.
    ///
    /// The count is attacker-controlled (artifact files may be truncated,
    /// corrupt or malicious), so it is bounded against the remaining buffer
    /// **before** any allocation sized by it: a valid count can never exceed
    /// `remaining / elem_bytes`, hence `Vec::with_capacity(count)` downstream
    /// is capped by the file size instead of by a 64-bit integer the file
    /// made up.  Decoding therefore fails with a [`HtcError::Persistence`]
    /// error rather than aborting on an out-of-memory allocation.  The
    /// conversion uses `try_from`, so a count that would not fit a 32-bit
    /// `usize` is an error, never a silent truncation.
    fn len(&mut self, elem_bytes: usize) -> Result<usize> {
        debug_assert!(elem_bytes > 0, "elements must occupy encoded bytes");
        let v = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        let implied = v
            .checked_mul(elem_bytes as u64)
            .ok_or_else(|| HtcError::Persistence("artifact length overflows".into()))?;
        if implied > remaining {
            return Err(HtcError::Persistence("artifact is truncated".into()));
        }
        usize::try_from(v).map_err(|_| HtcError::Persistence("artifact length overflows".into()))
    }

    /// A `u64` holding a matrix dimension or index — bounded only by a sanity
    /// cap (the value itself is validated against its matrix downstream).
    fn idx(&mut self) -> Result<usize> {
        let v = self.u64()?;
        if v > u32::MAX as u64 {
            return Err(HtcError::Persistence(format!(
                "implausible dimension/index {v}"
            )));
        }
        usize::try_from(v)
            .map_err(|_| HtcError::Persistence(format!("implausible dimension/index {v}")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64_vec(&mut self, n: usize) -> Result<Vec<f64>> {
        let bytes = self.take(
            n.checked_mul(8)
                .ok_or_else(|| HtcError::Persistence("artifact length overflows".into()))?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Encoded size of one CSR triplet (`u64` row, `u64` column, `f64`
    /// value) and, by extension, the minimum size of one CSR matrix (its
    /// rows/cols/nnz header).
    const CSR_TRIPLET_BYTES: usize = 24;

    fn csr(&mut self) -> Result<CsrMatrix> {
        let rows = self.idx()?;
        let cols = self.idx()?;
        let nnz = self.len(Self::CSR_TRIPLET_BYTES)?;
        let mut triplets = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            let r = self.idx()?;
            let c = self.idx()?;
            let v = self.f64()?;
            triplets.push((r, c, v));
        }
        CsrMatrix::from_triplets(rows, cols, &triplets)
            .map_err(|e| HtcError::Persistence(format!("invalid sparse matrix: {e}")))
    }

    fn header(&mut self, expected_kind: u8) -> Result<()> {
        let magic = self.take(4)?;
        if magic != MAGIC {
            return Err(HtcError::Persistence(
                "not an HTC artifact (bad magic)".into(),
            ));
        }
        let version = self.u16()?;
        if version != FORMAT_VERSION {
            return Err(HtcError::Persistence(format!(
                "unsupported artifact format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let kind = self.u8()?;
        if kind != expected_kind {
            return Err(HtcError::Persistence(format!(
                "artifact kind {kind} does not match the expected kind {expected_kind}"
            )));
        }
        Ok(())
    }

    fn finish(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(HtcError::Persistence(format!(
                "{} trailing bytes after the artifact payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn read_file(path: &Path) -> Result<Vec<u8>> {
    std::fs::read(path).map_err(|e| HtcError::Io(format!("reading {}: {e}", path.display())))
}

pub(crate) fn save_encoder(encoder: &TrainedEncoder, path: &Path) -> Result<()> {
    let gcn = encoder.encoder();
    let mut w = Writer::with_header(KIND_ENCODER);
    w.u64(gcn.num_layers() as u64);
    for (weight, &activation) in gcn.weights().iter().zip(gcn.activations()) {
        w.u8(activation_tag(activation));
        w.u64(weight.rows() as u64);
        w.u64(weight.cols() as u64);
        w.f64_slice(weight.data());
    }
    w.u64(encoder.loss_history().len() as u64);
    w.f64_slice(encoder.loss_history());
    w.write_to(path)
}

pub(crate) fn load_encoder(path: &Path) -> Result<TrainedEncoder> {
    let bytes = read_file(path)?;
    let mut r = Reader::new(&bytes);
    r.header(KIND_ENCODER)?;
    // Each persisted layer is at least a 1-byte activation tag, two u64
    // dimensions and one f64 weight.
    let layers = r.len(1 + 8 + 8 + 8)?;
    if layers == 0 {
        return Err(HtcError::Persistence("encoder has no layers".into()));
    }
    let mut weights = Vec::with_capacity(layers);
    let mut activations = Vec::with_capacity(layers);
    for l in 0..layers {
        let activation = activation_from_tag(r.u8()?)?;
        let rows = r.idx()?;
        let cols = r.idx()?;
        if rows == 0 || cols == 0 {
            return Err(HtcError::Persistence(format!(
                "layer {l} has a zero dimension ({rows}×{cols})"
            )));
        }
        if let Some(prev_cols) = weights.last().map(DenseMatrix::cols) {
            if prev_cols != rows {
                return Err(HtcError::Persistence(format!(
                    "layer {l} expects {rows} inputs but the previous layer produces {prev_cols}"
                )));
            }
        }
        let data = r.f64_vec(
            rows.checked_mul(cols)
                .ok_or_else(|| HtcError::Persistence("layer shape overflows".into()))?,
        )?;
        weights.push(
            DenseMatrix::from_vec(rows, cols, data)
                .map_err(|e| HtcError::Persistence(format!("invalid layer {l}: {e}")))?,
        );
        activations.push(activation);
    }
    let loss_len = r.len(8)?;
    let loss_history = r.f64_vec(loss_len)?;
    r.finish()?;
    Ok(TrainedEncoder::from_parts(
        GcnEncoder::from_weights(weights, activations),
        loss_history,
    ))
}

pub(crate) fn save_views(views: &TopologyViews, path: &Path) -> Result<()> {
    let mut w = Writer::with_header(KIND_VIEWS);
    w.u64(views.num_nodes as u64);
    w.u64(views.fingerprint);
    match &views.kind {
        ViewKind::Orbits(goms) => {
            w.u8(VIEWS_ORBITS);
            w.u8(weighting_tag(goms.weighting()));
            w.u64(goms.num_orbits() as u64);
            for (_, orbit) in goms.iter() {
                w.csr(orbit);
            }
        }
        ViewKind::LowOrder(adjacency) => {
            w.u8(VIEWS_LOW_ORDER);
            w.csr(adjacency);
        }
        ViewKind::Diffusion {
            adjacency,
            num_views,
            alpha,
        } => {
            w.u8(VIEWS_DIFFUSION);
            w.csr(adjacency);
            w.u64(*num_views as u64);
            w.f64(*alpha);
        }
    }
    w.write_to(path)
}

pub(crate) fn load_views(path: &Path) -> Result<TopologyViews> {
    let bytes = read_file(path)?;
    let mut r = Reader::new(&bytes);
    r.header(KIND_VIEWS)?;
    let num_nodes = r.idx()?;
    let fingerprint = r.u64()?;
    let kind_tag = r.u8()?;
    let square = |m: &CsrMatrix, what: &str| -> Result<()> {
        if m.shape() != (num_nodes, num_nodes) {
            return Err(HtcError::Persistence(format!(
                "{what} is {}×{} but the artifact declares {num_nodes} nodes",
                m.rows(),
                m.cols()
            )));
        }
        Ok(())
    };
    let kind = match kind_tag {
        VIEWS_ORBITS => {
            let weighting = weighting_from_tag(r.u8()?)?;
            // Each orbit matrix carries at least its CSR header.
            let num_orbits = r.len(Reader::CSR_TRIPLET_BYTES)?;
            if num_orbits == 0 || num_orbits > htc_orbits::NUM_EDGE_ORBITS {
                return Err(HtcError::Persistence(format!(
                    "artifact declares {num_orbits} orbits (valid: 1–{})",
                    htc_orbits::NUM_EDGE_ORBITS
                )));
            }
            let mut matrices = Vec::with_capacity(num_orbits);
            for k in 0..num_orbits {
                let m = r.csr()?;
                square(&m, &format!("orbit matrix {k}"))?;
                matrices.push(m);
            }
            ViewKind::Orbits(GomSet::from_matrices(num_nodes, weighting, matrices))
        }
        VIEWS_LOW_ORDER => {
            let adjacency = r.csr()?;
            square(&adjacency, "the adjacency matrix")?;
            ViewKind::LowOrder(adjacency)
        }
        VIEWS_DIFFUSION => {
            let adjacency = r.csr()?;
            square(&adjacency, "the adjacency matrix")?;
            // A count, not a buffer length — bounded by a sanity cap rather
            // than the remaining payload size.
            let num_views = r.u64()?;
            let alpha = r.f64()?;
            if num_views == 0 || num_views > MAX_DIFFUSION_VIEWS as u64 {
                return Err(HtcError::Persistence(format!(
                    "diffusion artifact declares {num_views} views (valid: 1-{MAX_DIFFUSION_VIEWS})"
                )));
            }
            let num_views = num_views as usize;
            if alpha <= 0.0 || alpha >= 1.0 {
                return Err(HtcError::Persistence(format!(
                    "diffusion teleport probability {alpha} out of range"
                )));
            }
            ViewKind::Diffusion {
                adjacency,
                num_views,
                alpha,
            }
        }
        other => {
            return Err(HtcError::Persistence(format!(
                "unknown topology view kind {other}"
            )))
        }
    };
    r.finish()?;
    Ok(TopologyViews {
        num_nodes,
        fingerprint,
        kind,
    })
}

/// Payload: `u64 cols`, `u64 k`, a row count followed by the `row_ptr` tail
/// (entry 0 is always 0 and is not stored), then a candidate count followed
/// by `(u64 column, f64 score)` pairs.  The candidate count is redundant with
/// the last `row_ptr` entry on purpose: it lets the reader bound the
/// allocation against the remaining file size *before* trusting `row_ptr`,
/// and [`TopKRows::from_parts`] then cross-checks the two.
pub(crate) fn save_topk(topk: &TopKRows, path: &Path) -> Result<()> {
    let (cols, k, row_ptr, indices, scores) = topk.parts();
    let mut w = Writer::with_header(KIND_TOPK);
    w.u64(cols as u64);
    w.u64(k as u64);
    w.u64((row_ptr.len() - 1) as u64);
    for &p in &row_ptr[1..] {
        w.u64(p as u64);
    }
    w.u64(indices.len() as u64);
    for (&c, &v) in indices.iter().zip(scores) {
        w.u64(c as u64);
        w.f64(v);
    }
    w.write_to(path)
}

pub(crate) fn load_topk(path: &Path) -> Result<TopKRows> {
    let bytes = read_file(path)?;
    let mut r = Reader::new(&bytes);
    r.header(KIND_TOPK)?;
    let cols = r.idx()?;
    let k = r.idx()?;
    // Each row owes one u64 row_ptr entry.
    let rows = r.len(8)?;
    let mut row_ptr = Vec::with_capacity(rows + 1);
    row_ptr.push(0usize);
    for _ in 0..rows {
        row_ptr.push(r.idx()?);
    }
    // Each candidate owes a u64 column and an f64 score.
    let candidates = r.len(8 + 8)?;
    let mut indices = Vec::with_capacity(candidates);
    let mut scores = Vec::with_capacity(candidates);
    for _ in 0..candidates {
        indices.push(r.idx()? as u32);
        scores.push(r.f64()?);
    }
    r.finish()?;
    TopKRows::from_parts(cols, k, row_ptr, indices, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HtcConfig;
    use crate::session::{Propagators, TopologyViews};
    use crate::training::train_single_graph;
    use htc_graph::{AttributedNetwork, Graph};

    fn artifact_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("htc-persist-{}-{name}", std::process::id()))
    }

    fn toy_network() -> AttributedNetwork {
        let graph =
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]).unwrap();
        let attrs = DenseMatrix::from_vec(
            6,
            2,
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.5, 0.5, 1.0],
        )
        .unwrap();
        AttributedNetwork::new(graph, attrs).unwrap()
    }

    #[test]
    fn encoder_round_trip_is_bit_exact() {
        let network = toy_network();
        let config = HtcConfig::fast();
        let views = TopologyViews::build(&network, &config);
        let props = Propagators::build(&views);
        let model = train_single_graph(
            props.laplacians(),
            network.attributes(),
            &config,
            &mut |_, _| true,
        )
        .unwrap();
        let encoder = TrainedEncoder::from_parts(model.encoder, model.loss_history);

        let path = artifact_path("encoder.bin");
        encoder.save(&path).unwrap();
        let loaded = TrainedEncoder::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.loss_history(), encoder.loss_history());
        assert_eq!(
            loaded.encoder().num_layers(),
            encoder.encoder().num_layers()
        );
        assert_eq!(
            loaded.encoder().activations(),
            encoder.encoder().activations()
        );
        for (a, b) in loaded
            .encoder()
            .weights()
            .iter()
            .zip(encoder.encoder().weights())
        {
            assert!(a.approx_eq(b, 0.0), "weights must survive bit-exactly");
        }
    }

    #[test]
    fn views_round_trip_preserves_goms() {
        let network = toy_network();
        let config = HtcConfig::fast();
        let views = TopologyViews::build(&network, &config);

        let path = artifact_path("views.bin");
        views.save(&path).unwrap();
        let loaded = TopologyViews::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.num_nodes(), views.num_nodes());
        assert_eq!(loaded.num_views(), views.num_views());
        assert_eq!(loaded.goms().unwrap(), views.goms().unwrap());
        // Derived propagators are consequently identical too.
        let a = Propagators::build(&views);
        let b = Propagators::build(&loaded);
        for (x, y) in a.laplacians().iter().zip(b.laplacians()) {
            assert_eq!(x.nnz(), y.nnz());
            for ((r1, c1, v1), (r2, c2, v2)) in x.triplets().zip(y.triplets()) {
                assert_eq!((r1, c1), (r2, c2));
                assert_eq!(v1.to_bits(), v2.to_bits());
            }
        }
    }

    fn sample_topk() -> TopKRows {
        use crate::topk::TopKRowsBuilder;
        let mut b = TopKRowsBuilder::new(5, 2);
        b.push_row(&[0.1, 0.9, 0.4, 0.8, 0.2]);
        b.push_row(&[0.0, 0.0, 0.0, 0.0, 0.0]);
        b.push_row(&[-1.0, 3.5, 2.0, 3.5, 0.5]);
        b.finish()
    }

    #[test]
    fn topk_round_trip_is_bit_exact() {
        let topk = sample_topk();
        let path = artifact_path("topk.bin");
        topk.save(&path).unwrap();
        let loaded = TopKRows::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.shape(), topk.shape());
        assert_eq!(loaded.k(), topk.k());
        assert_eq!(loaded.num_candidates(), topk.num_candidates());
        for r in 0..topk.rows() {
            let a: Vec<(usize, u64)> = topk.row(r).map(|(c, v)| (c, v.to_bits())).collect();
            let b: Vec<(usize, u64)> = loaded.row(r).map(|(c, v)| (c, v.to_bits())).collect();
            assert_eq!(a, b, "row {r} must survive bit-exactly");
        }
    }

    #[test]
    fn topk_truncation_and_corruption_are_rejected() {
        let topk = sample_topk();
        let path = artifact_path("topk-trunc.bin");
        topk.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = TopKRows::load(&path).unwrap_err();
            assert!(
                matches!(err, HtcError::Persistence(_)),
                "top-k cut at {cut}: {err}"
            );
        }

        // A top-k artifact is not an encoder artifact and vice versa.
        std::fs::write(&path, &bytes).unwrap();
        let err = TrainedEncoder::load(&path).unwrap_err();
        assert!(matches!(err, HtcError::Persistence(_)), "{err}");

        // Flip a row_ptr entry so the rows no longer obey the retention
        // order contract: structural validation must reject it.
        let mut corrupt = bytes.clone();
        // Payload layout: header (7) + cols (8) + k (8) + row count (8);
        // first row_ptr entry follows.
        let row_ptr_at = 7 + 24;
        corrupt[row_ptr_at..row_ptr_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &corrupt).unwrap();
        let err = TopKRows::load(&path).unwrap_err();
        assert!(matches!(err, HtcError::Persistence(_)), "{err}");

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_artifacts_are_rejected() {
        let path = artifact_path("corrupt.bin");

        std::fs::write(&path, b"nope").unwrap();
        let err = TrainedEncoder::load(&path).unwrap_err();
        assert!(matches!(err, HtcError::Persistence(_)), "{err}");

        std::fs::write(&path, b"HTCB\xff\xff\x01").unwrap();
        let err = TrainedEncoder::load(&path).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");

        // A views artifact is not an encoder artifact.
        let network = toy_network();
        let views = TopologyViews::build(&network, &HtcConfig::fast());
        views.save(&path).unwrap();
        let err = TrainedEncoder::load(&path).unwrap_err();
        assert!(matches!(err, HtcError::Persistence(_)), "{err}");

        // Truncation anywhere in the payload is caught.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let err = TopologyViews::load(&path).unwrap_err();
        assert!(matches!(err, HtcError::Persistence(_)), "{err}");
        std::fs::remove_file(&path).ok();

        let err = TrainedEncoder::load(artifact_path("does-not-exist.bin")).unwrap_err();
        assert!(matches!(err, HtcError::Io(_)), "{err}");
    }

    /// Every prefix of a valid artifact must decode to an error — never a
    /// panic, and never a multi-gigabyte allocation attempt.
    #[test]
    fn every_truncation_point_is_a_decode_error() {
        let network = toy_network();
        let config = HtcConfig::fast();
        let views = TopologyViews::build(&network, &config);
        let views_path = artifact_path("trunc-views.bin");
        views.save(&views_path).unwrap();
        let views_bytes = std::fs::read(&views_path).unwrap();

        let props = Propagators::build(&views);
        let model = train_single_graph(
            props.laplacians(),
            network.attributes(),
            &config,
            &mut |_, _| true,
        )
        .unwrap();
        let encoder = TrainedEncoder::from_parts(model.encoder, model.loss_history);
        let encoder_path = artifact_path("trunc-encoder.bin");
        encoder.save(&encoder_path).unwrap();
        let encoder_bytes = std::fs::read(&encoder_path).unwrap();

        let path = artifact_path("trunc-probe.bin");
        for cut in 0..views_bytes.len() {
            std::fs::write(&path, &views_bytes[..cut]).unwrap();
            let err = TopologyViews::load(&path).unwrap_err();
            assert!(
                matches!(err, HtcError::Persistence(_)),
                "views cut at {cut}: {err}"
            );
        }
        for cut in 0..encoder_bytes.len() {
            std::fs::write(&path, &encoder_bytes[..cut]).unwrap();
            let err = TrainedEncoder::load(&path).unwrap_err();
            assert!(
                matches!(err, HtcError::Persistence(_)),
                "encoder cut at {cut}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&views_path).ok();
        std::fs::remove_file(&encoder_path).ok();
    }

    /// A small file that *declares* an enormous element count must be
    /// rejected by the length check before any allocation is sized by it —
    /// a regression guard for the "attacker-controlled u64 length → huge
    /// `Vec::with_capacity` → OOM abort" bug.
    #[test]
    fn pathological_declared_lengths_are_rejected_without_allocating() {
        let path = artifact_path("hostile.bin");
        let header = |kind: u8| {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC);
            buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            buf.push(kind);
            buf
        };

        // Encoder claiming u64::MAX layers in a 23-byte file.
        let mut bytes = header(KIND_ENCODER);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = TrainedEncoder::load(&path).unwrap_err();
        assert!(matches!(err, HtcError::Persistence(_)), "{err}");

        // Views whose adjacency declares ~2^61 nonzeros: the *count* check
        // must fail, not a 2^61 × 24-byte capacity reservation.
        let mut bytes = header(KIND_VIEWS);
        bytes.extend_from_slice(&6u64.to_le_bytes()); // num_nodes
        bytes.extend_from_slice(&0u64.to_le_bytes()); // fingerprint
        bytes.push(VIEWS_LOW_ORDER);
        bytes.extend_from_slice(&6u64.to_le_bytes()); // rows
        bytes.extend_from_slice(&6u64.to_le_bytes()); // cols
        bytes.extend_from_slice(&(1u64 << 61).to_le_bytes()); // nnz
        std::fs::write(&path, &bytes).unwrap();
        let err = TopologyViews::load(&path).unwrap_err();
        assert!(matches!(err, HtcError::Persistence(_)), "{err}");

        // Same file, but the nnz is crafted so that count*24 overflows u64
        // back into a small number — the checked multiply must catch it.
        let overflowing = u64::MAX / 24 + 2;
        let len = bytes.len();
        bytes[len - 8..].copy_from_slice(&overflowing.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = TopologyViews::load(&path).unwrap_err();
        assert!(matches!(err, HtcError::Persistence(_)), "{err}");

        // A count that fits the remaining bytes but whose payload then runs
        // past the buffer is caught by the per-element reads.
        let mut bytes = header(KIND_ENCODER);
        bytes.extend_from_slice(&2u64.to_le_bytes()); // 2 layers declared
        bytes.push(1); // relu
        bytes.extend_from_slice(&1u64.to_le_bytes()); // rows
        bytes.extend_from_slice(&1u64.to_le_bytes()); // cols
        bytes.extend_from_slice(&1.0f64.to_le_bytes()); // one weight
        bytes.push(1); // relu
        bytes.extend_from_slice(&1u64.to_le_bytes()); // rows
        bytes.extend_from_slice(&4u64.to_le_bytes()); // cols: 32 data bytes owed
        bytes.extend_from_slice(&1.0f64.to_le_bytes()); // ...only 8 present
        std::fs::write(&path, &bytes).unwrap();
        let err = TrainedEncoder::load(&path).unwrap_err();
        assert!(matches!(err, HtcError::Persistence(_)), "{err}");

        std::fs::remove_file(&path).ok();
    }
}
