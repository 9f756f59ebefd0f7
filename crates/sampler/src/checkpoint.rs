//! Model checkpointing: save/load a trained ϕ to a compact binary format.
//!
//! Training at the paper's scale takes hours; any production deployment
//! checkpoints the topic–word model and serves inference (see
//! [`crate::kernel_infer`]) from the loaded artifact. The format is
//! hand-rolled little-endian (this workspace deliberately avoids serialization
//! dependencies): a magic/version header, the shape and priors, then the
//! non-zero ϕ entries as `(flat index, count)` pairs — ϕ is dense in
//! storage but mostly zero early in training, and sparse encoding is never
//! larger than ~2× the dense form at full convergence density.

use crate::hyper::Priors;
use crate::model::PhiModel;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"CULDAPHI";
const VERSION: u32 = 1;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// Serializes a ϕ model. The stream contains everything needed to resume
/// inference: shape, priors, column sums, and non-zero counts.
pub fn save_phi<W: Write>(phi: &PhiModel, mut out: W) -> io::Result<()> {
    out.write_all(MAGIC)?;
    write_u32(&mut out, VERSION)?;
    write_u64(&mut out, phi.num_topics as u64)?;
    write_u64(&mut out, phi.vocab_size as u64)?;
    write_f64(&mut out, phi.priors.alpha)?;
    write_f64(&mut out, phi.priors.beta)?;
    for k in 0..phi.num_topics {
        write_u32(&mut out, phi.phi_sum.load(k))?;
    }
    // Non-zero entries, walked row-wise through the hybrid layout (nnz is
    // tracked exactly per row; sparse tail rows hand their cells straight
    // out). Ascending rows × ascending topics is ascending flat order, so
    // the byte stream is identical to the historical dense scan.
    let nnz: u64 = (0..phi.vocab_size).map(|v| phi.phi.row_nnz(v) as u64).sum();
    write_u64(&mut out, nnz)?;
    for v in 0..phi.vocab_size {
        for (t, c) in phi.phi.row_nonzeros(v) {
            write_u64(&mut out, (v * phi.num_topics + t as usize) as u64)?;
            write_u32(&mut out, c)?;
        }
    }
    Ok(())
}

/// Deserializes a ϕ model written by [`save_phi`], validating the header,
/// shape bounds, and count consistency.
pub fn load_phi<R: Read>(mut input: R) -> io::Result<PhiModel> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a CuLDA phi checkpoint (bad magic)"));
    }
    let version = read_u32(&mut input)?;
    if version != VERSION {
        return Err(invalid(format!(
            "unsupported checkpoint version {version} (expected {VERSION})"
        )));
    }
    let k = read_u64(&mut input)? as usize;
    let v = read_u64(&mut input)? as usize;
    if k == 0 || k > crate::model::MAX_TOPICS || v == 0 {
        return Err(invalid(format!("implausible shape K = {k}, V = {v}")));
    }
    // Refuse to allocate unbounded memory for a hostile header: ϕ is
    // capped at 2³¹ cells (8 GiB of u32), far beyond any real model here.
    match k.checked_mul(v) {
        Some(cells) if cells <= (1 << 31) => {}
        _ => {
            return Err(invalid(format!(
                "phi of {k}×{v} cells is implausibly large"
            )))
        }
    }
    let alpha = read_f64(&mut input)?;
    let beta = read_f64(&mut input)?;
    if !(alpha > 0.0 && beta > 0.0 && alpha.is_finite() && beta.is_finite()) {
        return Err(invalid("non-positive priors"));
    }
    let phi = PhiModel::zeros(k, v, Priors::new(alpha, beta));
    let mut declared_sums = vec![0u64; k];
    for (t, slot) in declared_sums.iter_mut().enumerate() {
        let s = read_u32(&mut input)?;
        phi.phi_sum.store(t, s);
        *slot = s as u64;
    }
    let nnz = read_u64(&mut input)?;
    if nnz > (k as u64) * (v as u64) {
        return Err(invalid("nnz exceeds the matrix size"));
    }
    let mut actual_sums = vec![0u64; k];
    for _ in 0..nnz {
        let idx = read_u64(&mut input)? as usize;
        let val = read_u32(&mut input)?;
        if idx >= k * v {
            return Err(invalid(format!("entry index {idx} out of bounds")));
        }
        if val == 0 {
            return Err(invalid("stored zero entry"));
        }
        // Row/column insert: rows past the storage cutover densify as the
        // entries stream in, exactly as they would during training.
        phi.phi.set(idx / k, idx % k, val);
        actual_sums[idx % k] += val as u64;
    }
    if actual_sums != declared_sums {
        return Err(invalid("phi column sums do not match the stored entries"));
    }
    Ok(phi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PhiModel {
        let phi = PhiModel::zeros(4, 10, Priors::new(12.5, 0.01));
        for v in 0..10usize {
            for k in 0..4usize {
                let c = ((v * 4 + k) % 3) as u32;
                if c > 0 {
                    phi.phi.store(phi.phi_index(v, k), c);
                    phi.phi_sum.fetch_add(k, c);
                }
            }
        }
        phi
    }

    #[test]
    fn round_trip_preserves_everything() {
        let phi = model();
        let mut buf = Vec::new();
        save_phi(&phi, &mut buf).unwrap();
        let loaded = load_phi(buf.as_slice()).unwrap();
        assert_eq!(loaded.num_topics, 4);
        assert_eq!(loaded.vocab_size, 10);
        assert_eq!(loaded.priors, phi.priors);
        assert_eq!(loaded.phi.snapshot(), phi.phi.snapshot());
        assert_eq!(loaded.phi_sum.snapshot(), phi.phi_sum.snapshot());
        loaded.check_sums();
    }

    #[test]
    fn empty_model_round_trips() {
        let phi = PhiModel::zeros(2, 3, Priors::paper(2));
        let mut buf = Vec::new();
        save_phi(&phi, &mut buf).unwrap();
        let loaded = load_phi(buf.as_slice()).unwrap();
        assert_eq!(loaded.phi.snapshot(), vec![0; 6]);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        save_phi(&model(), &mut buf).unwrap();
        buf[0] = b'X';
        let err = load_phi(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        save_phi(&model(), &mut buf).unwrap();
        buf[8] = 99;
        assert!(load_phi(buf.as_slice())
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        save_phi(&model(), &mut buf).unwrap();
        for cut in [4usize, 20, buf.len() / 2, buf.len() - 3] {
            assert!(load_phi(&buf[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn corrupted_counts_fail_the_sum_check() {
        let mut buf = Vec::new();
        save_phi(&model(), &mut buf).unwrap();
        // Flip the last value byte (a count) — sums no longer reconcile.
        let n = buf.len();
        buf[n - 1] ^= 0x01;
        let err = load_phi(buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("column sums") || err.to_string().contains("zero entry"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn checkpoint_supports_inference_after_reload() {
        // A trained-looking model survives save→load→fold-in.
        let phi = model();
        let mut buf = Vec::new();
        save_phi(&phi, &mut buf).unwrap();
        let loaded = load_phi(buf.as_slice()).unwrap();
        use crate::kernel_infer::{try_run_infer_kernel, InferDoc, InferKernelConfig};
        let device = culda_gpusim::Device::new(0, culda_gpusim::GpuSpec::titan_xp_pascal());
        let docs = [InferDoc {
            stream_id: 0,
            words: &[0, 1, 2],
        }];
        let cfg = InferKernelConfig::new(1);
        let (post, _) =
            try_run_infer_kernel(&device, &loaded, &loaded.inv_denominators(), &docs, &cfg)
                .unwrap();
        assert_eq!(
            post[0].theta_acc.iter().sum::<u64>(),
            3 * u64::from(post[0].acc_sweeps)
        );
    }
}
