//! Binary serialization of SAMO training state — save/resume for long
//! training runs (the paper's runs train to completion over many jobs;
//! checkpointing the *compressed* state writes `24fφ`-ish bytes instead
//! of `20φ`, the same ~4× saving on disk as in memory).
//!
//! On disk: the magic/version header, a trainer-meta section
//! ([`TrainerMeta`]: loss-scale state and step counters), then one
//! section per layer — mask (shape + linearized indices), compressed
//! `θ32`, `∇θ16`, and the optimizer state. Every section is preceded by
//! its CRC-32, so torn or bit-rotted files are rejected with an `Err`
//! instead of silently corrupting a resumed run. Any other version —
//! the unchecksummed version 1 included — is refused by its header.
//!
//! All integers little-endian; no external schema needed. Loaders never
//! trust a length field without checking it against the remaining input,
//! so a corrupted header cannot trigger an over-allocation.

use crate::state::{os_arrays, OwnedRange, SamoLayerState};
use bytes::{BufMut, Bytes};
use nn::mixed::{OptState, Optimizer};
use nn::optim::{AdamState, SgdState};
use prune::Mask;
use tensor::f16::F16;

const MAGIC: u32 = 0x53414D4F; // "SAMO"
const VERSION: u16 = 2;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — implemented here
// because the workspace stays dependency-light; validated against the
// canonical check value crc32("123456789") == 0xCBF43926.
// ---------------------------------------------------------------------------

/// Table `k` is a byte's CRC contribution once `k` more bytes have gone
/// by — table 0 run over its own byte, table `k − 1`'s entry over one
/// more zero byte — so eight input bytes fold into the state with eight
/// independent lookups (slicing-by-8) instead of a chain of eight.
const fn make_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 8 * 256 {
        let (k, byte) = (i / 256, i % 256);
        let mut c = if k == 0 { byte as u32 } else { tables[k - 1][byte] };
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[k][byte] = c;
        i += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = make_crc_tables();

/// CRC-32 checksum (IEEE, as used by zip/png/ethernet) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (words, tail) = data.as_chunks::<8>();
    let mut c = !0u32;
    for w in words {
        let [b0, b1, b2, b3] = (c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
        c = t[7][b0 as usize] ^ t[6][b1 as usize] ^ t[5][b2 as usize] ^ t[4][b3 as usize]
            ^ t[3][w[4] as usize] ^ t[2][w[5] as usize] ^ t[1][w[6] as usize] ^ t[0][w[7] as usize];
    }
    for &b in tail {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Trainer-level state carried by checkpoints alongside the layers:
/// everything a resumed run needs so its trajectory is bitwise identical
/// to an uninterrupted one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainerMeta {
    /// Current dynamic loss scale.
    pub loss_scale: f32,
    /// Consecutive good steps accumulated toward the next scale growth.
    pub good_steps: u32,
    /// Optimizer steps applied.
    pub steps_taken: u64,
    /// Steps skipped due to gradient overflow.
    pub steps_skipped: u64,
}

/// Appends `src` little-endian, `N` bytes an item, as one bulk copy.
fn put_all<T, const N: usize>(buf: &mut Vec<u8>, src: &[T], le: impl Fn(&T) -> [u8; N]) {
    let at = buf.len();
    buf.resize(at + src.len() * N, 0);
    for (dst, item) in buf[at..].as_chunks_mut::<N>().0.iter_mut().zip(src) {
        *dst = le(item);
    }
}

/// Runs `body` behind a CRC-32 slot and seals the slot over what it wrote.
fn put_section(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    buf.put_u32_le(0);
    body(buf);
    let crc = crc32(&buf[at + 4..]);
    buf[at..at + 4].copy_from_slice(&crc.to_le_bytes());
}

/// One layer's section: the mask, then each compressed array as the
/// concatenation of the shards' ranges.
fn put_layer(buf: &mut Vec<u8>, mask: &Mask, ranges: &[OwnedRange<'_>]) {
    buf.put_u8(mask.shape().len() as u8);
    put_all(buf, mask.shape(), |&d| (d as u64).to_le_bytes());
    buf.put_u64_le(mask.nnz() as u64);
    put_all(buf, mask.indices(), |i| i.to_le_bytes());
    ranges.iter().for_each(|r| put_all(buf, &r.theta32, |v| v.to_le_bytes()));
    ranges.iter().for_each(|r| put_all(buf, &r.grad16, |g| g.to_bits().to_le_bytes()));
    // Every shard counts the same Adam steps.
    match &*ranges[0].os {
        OptState::Adam(st) => {
            buf.put_u8(0);
            buf.put_u64_le(st.step);
        }
        OptState::Sgd(_) => buf.put_u8(1),
    }
    for array in 0..2 {
        for v in ranges.iter().filter_map(|r| os_arrays(&r.os)[array]) {
            put_all(buf, v, |v| v.to_le_bytes());
        }
    }
}

/// Serializes layers plus trainer meta with per-section CRC-32
/// checksums (one over the meta section, one per layer).
pub fn save_checkpoint(layers: &[SamoLayerState], meta: &TrainerMeta) -> Bytes {
    let whole = layers.iter().map(|l| {
        assert!(!l.is_sharded(), "a shard is saved with its peers' ranges");
        (l.mask().clone(), vec![l.owned_range()])
    });
    save_ranges(&whole.collect::<Vec<_>>(), meta)
}

/// [`save_checkpoint`] from each layer's mask and its shards' owned
/// ranges in rank order — no full state is assembled to write one, and
/// every section lands in place in one buffer sized up front.
pub(crate) fn save_ranges(layers: &[(Mask, Vec<OwnedRange<'_>>)], meta: &TrainerMeta) -> Bytes {
    // Per layer: CRC, rank, shape, nnz, tag and Adam's step counter, then
    // 4 (index) + 4 (θ32) + 2 (∇θ16) + 8 (Adam) or 4 (SGD) B per kept weight.
    let bytes = |(mask, ranges): &(Mask, Vec<OwnedRange<'_>>)| {
        let adam = matches!(&*ranges[0].os, OptState::Adam(_)) as usize;
        4 + 1 + 8 * mask.shape().len() + 8 + 1 + 8 * adam + (14 + 4 * adam) * mask.nnz()
    };
    let total = 6 + 32 + layers.iter().map(bytes).sum::<usize>();
    let mut buf = Vec::with_capacity(total);
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    put_section(&mut buf, |sec| {
        sec.put_f32_le(meta.loss_scale);
        sec.put_u32_le(meta.good_steps);
        sec.put_u64_le(meta.steps_taken);
        sec.put_u64_le(meta.steps_skipped);
        sec.put_u32_le(layers.len() as u32);
    });
    for (mask, ranges) in layers {
        put_section(&mut buf, |sec| put_layer(sec, mask, ranges));
    }
    debug_assert_eq!(buf.len(), total, "the size formula drifted from the writer");
    buf.into()
}

// The loader reads untrusted bytes through a `&mut &[u8]` that shrinks
// from the front. Every read is bounds-checked and every length derived
// from the input is validated before any allocation, so corrupted input
// yields `Err`, never a panic or OOM.

fn truncated(what: &str) -> String {
    format!("truncated checkpoint while reading {what}")
}

/// One little-endian scalar of `N` bytes.
fn get<T, const N: usize>(r: &mut &[u8], what: &str, le: fn([u8; N]) -> T) -> Result<T, String> {
    let (head, rest) = r.split_first_chunk::<N>().ok_or_else(|| truncated(what))?;
    *r = rest;
    Ok(le(*head))
}

/// An array of `n` little-endian items, `N` bytes each: its length is
/// checked against the remaining input before anything is allocated.
fn get_all<T, const N: usize>(
    r: &mut &[u8],
    n: usize,
    what: &str,
    le: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, String> {
    let (head, rest) = r.split_at_checked(n.saturating_mul(N)).ok_or_else(|| truncated(what))?;
    *r = rest;
    Ok(head.as_chunks::<N>().0.iter().map(|&b| le(b)).collect())
}

/// A length field from the input, validated to fit the remaining bytes
/// at `elem_size` bytes per element — the guard against corrupted
/// headers demanding absurd allocations.
fn get_len(r: &mut &[u8], elem_size: usize, what: &str) -> Result<usize, String> {
    let raw = get(r, what, u64::from_le_bytes)?;
    let n = usize::try_from(raw).map_err(|_| format!("{what} count {raw} overflows"))?;
    let bytes = n.checked_mul(elem_size).ok_or_else(|| format!("{what} count {n} overflows"))?;
    if r.len() < bytes {
        return Err(truncated(what));
    }
    Ok(n)
}

fn parse_layer(r: &mut &[u8], opt: &Optimizer, li: usize) -> Result<SamoLayerState, String> {
    let rank = get(r, "shape rank", u8::from_le_bytes)? as usize;
    let mut shape = Vec::with_capacity(rank);
    let mut numel: usize = 1;
    for _ in 0..rank {
        let d = get(r, "shape", u64::from_le_bytes)? as usize;
        numel = numel
            .checked_mul(d)
            .ok_or_else(|| format!("layer {li}: shape overflows"))?;
        shape.push(d);
    }
    if numel > u32::MAX as usize {
        return Err(format!("layer {li}: tensor too large for u32 indices"));
    }
    let nnz = get_len(r, 4, "indices")?;
    if nnz > numel {
        return Err(format!("layer {li}: nnz {nnz} exceeds numel {numel}"));
    }
    let indices = get_all(r, nnz, "indices", u32::from_le_bytes)?;
    // Mask::new asserts these invariants; on untrusted input report them
    // as errors instead.
    for w in indices.windows(2) {
        if w[0] >= w[1] {
            return Err(format!("layer {li}: mask indices not strictly increasing"));
        }
    }
    if let Some(&last) = indices.last() {
        if last as usize >= numel {
            return Err(format!("layer {li}: mask index {last} out of bounds"));
        }
    }
    let mask = Mask::new(&shape, indices);

    let theta32 = get_all(r, nnz, "theta32", f32::from_le_bytes)?;
    let grad16 = get_all(r, nnz, "grad16", |b| F16::from_bits(u16::from_le_bytes(b)))?;

    let tag = get(r, "optimizer tag", u8::from_le_bytes)?;
    let os = match (tag, opt) {
        (0, Optimizer::Adam(_)) => {
            if r.len() < nnz.saturating_mul(8).saturating_add(8) {
                return Err(truncated("adam state"));
            }
            let step = get(r, "adam step", u64::from_le_bytes)?;
            let m = get_all(r, nnz, "adam m", f32::from_le_bytes)?;
            let v = get_all(r, nnz, "adam v", f32::from_le_bytes)?;
            OptState::Adam(AdamState { m, v, step })
        }
        (1, Optimizer::Sgd(_)) => {
            let velocity = get_all(r, nnz, "sgd velocity", f32::from_le_bytes)?;
            OptState::Sgd(SgdState { velocity })
        }
        (t, _) => {
            return Err(format!(
                "layer {li}: optimizer tag {t} does not match the requested optimizer"
            ))
        }
    };
    Ok(SamoLayerState::from_parts(mask, theta32, grad16, os))
}

/// Deserializes a checkpoint into its layers and trainer meta. The
/// optimizer kind must match what was saved. Any corruption — truncation,
/// structural nonsense, an unknown version, or a CRC mismatch — yields
/// `Err`; this function never panics on untrusted input.
pub fn load_checkpoint(
    buf: &[u8],
    opt: &Optimizer,
) -> Result<(Vec<SamoLayerState>, TrainerMeta), String> {
    let r = &mut { buf };
    let magic = get(r, "header", u32::from_le_bytes)?;
    if magic != MAGIC {
        return Err(format!("bad magic {magic:#010x}"));
    }
    let version = get(r, "header", u16::from_le_bytes)?;
    if version != VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let meta_crc = get(r, "meta crc", u32::from_le_bytes)?;
    let sealed = *r;
    let meta = TrainerMeta {
        loss_scale: get(r, "meta", f32::from_le_bytes)?,
        good_steps: get(r, "meta", u32::from_le_bytes)?,
        steps_taken: get(r, "meta", u64::from_le_bytes)?,
        steps_skipped: get(r, "meta", u64::from_le_bytes)?,
    };
    let nlayers = get(r, "layer count", u32::from_le_bytes)? as usize;
    if crc32(&sealed[..sealed.len() - r.len()]) != meta_crc {
        return Err("meta section CRC mismatch".to_string());
    }
    // No preallocation from the untrusted count: each parsed layer
    // consumes at least a few bytes, so growth is input-bounded.
    let mut layers = Vec::new();
    for li in 0..nlayers {
        let layer_crc = get(r, "layer crc", u32::from_le_bytes)?;
        let sealed = *r;
        let layer = parse_layer(r, opt, li)?;
        if crc32(&sealed[..sealed.len() - r.len()]) != layer_crc {
            return Err(format!("layer {li}: CRC mismatch"));
        }
        layers.push(layer);
    }
    if !r.is_empty() {
        return Err(format!("{} trailing bytes after checkpoint", r.len()));
    }
    Ok((layers, meta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{compress_grad, optimizer_step, optimizer_step_shard, to_full_layer};
    use nn::optim::{AdamConfig, SgdConfig};

    fn adam() -> Optimizer {
        Optimizer::Adam(AdamConfig {
            lr: 0.05,
            ..Default::default()
        })
    }

    fn make_layers(opt: &Optimizer) -> Vec<SamoLayerState> {
        (0..3u64)
            .map(|i| {
                let phi = 100 + 17 * i as usize;
                let mask = prune::random_prune(&[phi], 0.6, i);
                let values: Vec<f32> = (0..phi).map(|j| (j as f32).sin()).collect();
                let mut st = SamoLayerState::from_params(&values, mask, opt);
                // Make the state non-trivial.
                compress_grad(&mut st, &vec![0.25; phi]);
                optimizer_step(&mut st, opt, 1.0);
                st
            })
            .collect()
    }

    fn meta() -> TrainerMeta {
        TrainerMeta {
            loss_scale: 1024.0,
            good_steps: 7,
            steps_taken: 42,
            steps_skipped: 3,
        }
    }

    /// The byte-at-a-time loop `crc32` replaced, kept as its oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let step = |c: u32, &b: &u8| CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        !data.iter().fold(!0u32, step)
    }

    #[test]
    fn crc32_check_value_and_slicing_matches_bytewise() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Every length 0..=64 at every alignment of the 8-byte stride.
        let data: Vec<u8> = (0..72u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let piece = &data[start..start + len];
                assert_eq!(crc32(piece), crc32_bytewise(piece), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn roundtrip_adam() {
        let opt = adam();
        let layers = make_layers(&opt);
        let bytes = save_checkpoint(&layers, &meta());
        let (loaded, got) = load_checkpoint(&bytes, &opt).unwrap();
        assert_eq!(got, meta());
        assert_eq!(loaded.len(), 3);
        for (a, b) in layers.iter().zip(&loaded) {
            assert_eq!(a.mask(), b.mask());
            assert_eq!(a.theta32, b.theta32);
            assert_eq!(a.grad16, b.grad16);
            assert_eq!(a.theta16, b.theta16, "θ16 must be reconstructible");
            match (&a.os, &b.os) {
                (OptState::Adam(x), OptState::Adam(y)) => {
                    assert_eq!(x.step, y.step);
                    assert_eq!(x.m, y.m);
                    assert_eq!(x.v, y.v);
                }
                _ => panic!("wrong optimizer state"),
            }
        }
    }

    #[test]
    fn roundtrip_sgd() {
        let opt = Optimizer::Sgd(SgdConfig::default());
        let layers = make_layers(&opt);
        let bytes = save_checkpoint(&layers, &meta());
        let (loaded, _) = load_checkpoint(&bytes, &opt).unwrap();
        for (a, b) in layers.iter().zip(&loaded) {
            match (&a.os, &b.os) {
                (OptState::Sgd(x), OptState::Sgd(y)) => assert_eq!(x.velocity, y.velocity),
                _ => panic!("wrong optimizer state"),
            }
        }
    }

    #[test]
    fn v1_header_is_rejected_as_unsupported() {
        // A well-formed version-1 file (magic, version, layer count,
        // unchecksummed layers) is refused by its header, not parsed.
        let mut buf = Vec::new();
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(1);
        buf.put_u32_le(1);
        let layer = &make_layers(&adam())[0];
        put_layer(&mut buf, layer.mask(), &[layer.owned_range()]);
        let err = load_checkpoint(&buf, &adam()).unwrap_err();
        assert_eq!(err, "unsupported version 1");
    }

    #[test]
    fn shards_ranges_write_the_bytes_of_the_full_state() {
        // Three shards of a stepped layer, each contributing its owned
        // ranges (borrowed, and owned as a rank thread sends them): the
        // same bytes as the assembled full layer, for Adam and SGD.
        let sgd = Optimizer::Sgd(nn::optim::SgdConfig { lr: 0.1, momentum: 0.9, weight_decay: 0.0 });
        for opt in [adam(), sgd] {
            let mask = prune::random_prune(&[10, 7], 0.5, 4);
            let values: Vec<f32> = (0..70).map(|j| (j as f32 * 0.3).sin()).collect();
            let mut shards: Vec<SamoLayerState> = (0..3)
                .map(|r| SamoLayerState::from_params_sharded(&values, mask.clone(), &opt, r, 3))
                .collect();
            for (r, st) in shards.iter_mut().enumerate() {
                // Local gradients differ between ranks outside the owned range.
                let grads: Vec<f32> = (0..70).map(|j| (j + r) as f32 * 0.01).collect();
                compress_grad(st, &grads);
                optimizer_step_shard(st, &opt, 1.0);
            }
            let full = to_full_layer(&shards.iter().collect::<Vec<_>>());
            let want = save_checkpoint(std::slice::from_ref(&full), &meta());
            let borrowed = shards.iter().map(SamoLayerState::owned_range).collect();
            assert_eq!(save_ranges(&[(mask.clone(), borrowed)], &meta()), want);
            let owned = shards.iter().map(|s| s.owned_range().into_owned()).collect();
            assert_eq!(save_ranges(&[(mask, owned)], &meta()), want);
        }
    }

    #[test]
    fn resume_continues_identically() {
        // Train 3 steps, checkpoint, train 3 more; vs load + 3 more.
        let opt = adam();
        let phi = 200usize;
        let mask = prune::random_prune(&[phi], 0.8, 9);
        let values: Vec<f32> = (0..phi).map(|j| (j as f32 * 0.1).cos()).collect();
        let grad_at = |s: usize| -> Vec<f32> {
            (0..phi).map(|j| ((j + s) % 7) as f32 * 0.05 - 0.15).collect()
        };

        let mut live = SamoLayerState::from_params(&values, mask, &opt);
        for s in 0..3 {
            compress_grad(&mut live, &grad_at(s));
            optimizer_step(&mut live, &opt, 1.0);
        }
        let checkpoint = save_checkpoint(std::slice::from_ref(&live), &meta());
        let mut resumed = load_checkpoint(&checkpoint, &opt).unwrap().0.pop().unwrap();
        for s in 3..6 {
            compress_grad(&mut live, &grad_at(s));
            optimizer_step(&mut live, &opt, 1.0);
            compress_grad(&mut resumed, &grad_at(s));
            optimizer_step(&mut resumed, &opt, 1.0);
        }
        assert_eq!(live.theta32, resumed.theta32);
        assert_eq!(live.theta16, resumed.theta16);
    }

    #[test]
    fn rejects_corruption() {
        let opt = adam();
        let bytes = save_checkpoint(&make_layers(&opt), &meta());

        // Bad magic.
        let mut bad = bytes.to_vec();
        bad[0] ^= 0xFF;
        assert!(load_checkpoint(&bad, &opt).unwrap_err().contains("magic"));

        // Truncation at every interesting boundary family.
        for cut in [5usize, 12, bytes.len() / 2, bytes.len() - 1] {
            let err = load_checkpoint(&bytes[..cut], &opt).unwrap_err();
            assert!(err.contains("truncated"), "cut at {cut}: {err}");
        }

        // Trailing garbage.
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(load_checkpoint(&long, &opt).unwrap_err().contains("trailing"));

        // Optimizer mismatch.
        let sgd = Optimizer::Sgd(SgdConfig::default());
        assert!(load_checkpoint(&bytes, &sgd)
            .unwrap_err()
            .contains("does not match"));
    }

    #[test]
    fn detects_payload_bit_rot() {
        let opt = adam();
        let bytes = save_checkpoint(&make_layers(&opt), &meta());
        // Flip a bit deep in the last layer's payload — structurally valid,
        // only the CRC notices.
        let mut bad = bytes.to_vec();
        let n = bad.len();
        bad[n - 3] ^= 0x04;
        let err = load_checkpoint(&bad, &opt).unwrap_err();
        assert!(
            err.contains("CRC") || err.contains("truncated") || err.contains("trailing"),
            "{err}"
        );
    }

    /// Header plus a correctly checksummed meta section announcing
    /// `nlayers` layers — the prefix a hostile length field hides behind.
    fn sealed_prefix(nlayers: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION);
        put_section(&mut buf, |sec| {
            sec.put_f32_le(1.0);
            sec.put_u32_le(0);
            sec.put_u64_le(0);
            sec.put_u64_le(0);
            sec.put_u32_le(nlayers);
        });
        buf
    }

    #[test]
    fn huge_layer_count_is_rejected_cheaply() {
        // A header claiming 4 billion layers must fail fast with a
        // truncation error, not allocate.
        let err = load_checkpoint(&sealed_prefix(u32::MAX), &adam()).unwrap_err();
        assert!(err.contains("truncated"), "{err}");

        // Likewise a huge nnz inside a layer.
        let mut buf = sealed_prefix(1);
        buf.put_u32_le(0); // layer crc — never reached
        buf.put_u8(1); // rank
        buf.put_u64_le(1 << 30); // shape
        buf.put_u64_le(u64::MAX / 2); // nnz — would overflow nnz*4
        let err = load_checkpoint(&buf, &adam()).unwrap_err();
        assert!(
            err.contains("truncated") || err.contains("overflow") || err.contains("exceeds"),
            "{err}"
        );
    }

    #[test]
    fn checkpoint_size_reflects_compression() {
        // At 90% sparsity, the checkpoint is ~(16+4)·fφ + header — far
        // below a dense 20φ dump.
        let opt = adam();
        let phi = 10_000usize;
        let mask = prune::random_prune(&[phi], 0.9, 3);
        let nnz = mask.nnz();
        let st = SamoLayerState::from_params(&vec![0.1; phi], mask, &opt);
        let bytes = save_checkpoint(std::slice::from_ref(&st), &meta());
        // indices 4 + θ32 4 + ∇θ16 2 + adam 8 = 18 bytes per nnz.
        let expect = 18 * nnz;
        assert!(bytes.len() >= expect && bytes.len() < expect + 128);
        assert!(bytes.len() < 20 * phi / 4, "must be far below dense state");
    }
}
