//! Property-style tests for the sampling mathematics: the S/Q
//! decomposition and the tree/reference sampler equivalence over seeded
//! pseudo-random model states (deterministic sweeps stand in for a
//! property-testing framework in the offline build).

use culda_corpus::Xoshiro256;
use culda_sampler::spq::{
    compute_pstar, exact_conditional, p1_weights, pstar_tree, q_mass, sample_token_reference,
    sample_token_tree,
};
use culda_sampler::{try_run_infer_kernel, InferDoc, InferKernelConfig, PhiModel, Priors};

/// A small pseudo-random model state: K topics × V words of ϕ counts plus
/// a θ row with the same column space.
#[derive(Debug, Clone)]
struct ModelCase {
    k: usize,
    v: usize,
    phi_counts: Vec<u32>,
    theta_dense: Vec<u32>,
    word: usize,
}

impl ModelCase {
    fn draw(g: &mut Xoshiro256) -> Self {
        let k = 2 + g.next_below(22) as usize;
        let v = 2 + g.next_below(10) as usize;
        Self {
            k,
            v,
            phi_counts: (0..k * v).map(|_| g.next_below(30)).collect(),
            theta_dense: (0..k).map(|_| g.next_below(15)).collect(),
            word: g.next_below(v as u32) as usize,
        }
    }
}

fn cases(test_id: u64) -> Xoshiro256 {
    Xoshiro256::from_seed_stream(0x5A4D_71E5 ^ test_id, 0)
}

fn build_phi(case: &ModelCase) -> PhiModel {
    let phi = PhiModel::zeros(case.k, case.v, Priors::new(0.3, 0.05));
    for v in 0..case.v {
        for k in 0..case.k {
            let c = case.phi_counts[v * case.k + k];
            if c > 0 {
                phi.phi.store(phi.phi_index(v, k), c);
                phi.phi_sum.fetch_add(k, c);
            }
        }
    }
    phi
}

fn sparse_theta(dense: &[u32]) -> (Vec<u16>, Vec<u32>) {
    let mut cols = Vec::new();
    let mut vals = Vec::new();
    for (k, &c) in dense.iter().enumerate() {
        if c > 0 {
            cols.push(k as u16);
            vals.push(c);
        }
    }
    (cols, vals)
}

#[test]
fn s_plus_q_equals_exact_mass() {
    let mut g = cases(1);
    for _ in 0..96 {
        let case = ModelCase::draw(&mut g);
        let phi = build_phi(&case);
        let inv = phi.inv_denominators();
        let mut pstar = vec![0.0f32; case.k];
        compute_pstar(&phi, case.word, &inv, &mut pstar);
        let (cols, vals) = sparse_theta(&case.theta_dense);
        let mut w = Vec::new();
        let s = p1_weights(&cols, &vals, &pstar, &mut w) as f64;
        let q = q_mass(0.3, pstar.iter().sum::<f32>()) as f64;
        let exact: f64 = exact_conditional(&case.theta_dense, &phi, case.word, &inv)
            .iter()
            .sum();
        assert!(
            ((s + q) - exact).abs() <= 1e-4 * exact.max(1e-6),
            "S+Q = {} vs exact {exact}",
            s + q
        );
    }
}

#[test]
fn tree_and_reference_samplers_agree() {
    let mut g = cases(2);
    for _ in 0..96 {
        let case = ModelCase::draw(&mut g);
        let ub = g.next_f32();
        let ui = g.next_f32();
        let phi = build_phi(&case);
        let inv = phi.inv_denominators();
        let mut pstar = vec![0.0f32; case.k];
        compute_pstar(&phi, case.word, &inv, &mut pstar);
        let tree = pstar_tree(&pstar);
        let (cols, vals) = sparse_theta(&case.theta_dense);
        let a = sample_token_reference(&cols, &vals, &pstar, 0.3, ub, ui);
        let b = sample_token_tree(&cols, &vals, &tree, &pstar, 0.3, ub, ui);
        assert_eq!(a, b);
    }
}

#[test]
fn sampled_topic_has_positive_exact_probability() {
    let mut g = cases(3);
    for _ in 0..96 {
        let case = ModelCase::draw(&mut g);
        let ub = g.next_f32();
        let ui = g.next_f32();
        let phi = build_phi(&case);
        let inv = phi.inv_denominators();
        let mut pstar = vec![0.0f32; case.k];
        compute_pstar(&phi, case.word, &inv, &mut pstar);
        let (cols, vals) = sparse_theta(&case.theta_dense);
        let topic = sample_token_reference(&cols, &vals, &pstar, 0.3, ub, ui) as usize;
        assert!(topic < case.k);
        let exact = exact_conditional(&case.theta_dense, &phi, case.word, &inv);
        assert!(exact[topic] > 0.0, "drew a zero-probability topic");
    }
}

#[test]
fn checkpoint_loader_never_panics_on_corruption() {
    let mut g = cases(4);
    for _ in 0..64 {
        // Build a valid checkpoint, then corrupt it arbitrarily: the
        // loader must return Ok or Err, never panic or over-allocate.
        let phi = PhiModel::zeros(8, 32, Priors::paper(8));
        for i in 0..40usize {
            phi.phi.store(i * 5 % 256, 1 + (i % 9) as u32);
        }
        // Recompute sums so the base artifact is valid.
        for k in 0..8 {
            let mut s = 0;
            for v in 0..32 {
                s += phi.phi.load(v * 8 + k);
            }
            phi.phi_sum.store(k, s);
        }
        let mut buf = Vec::new();
        culda_sampler::save_phi(&phi, &mut buf).unwrap();
        let flips = 1 + g.next_below(7);
        for _ in 0..flips {
            let n = buf.len();
            let pos = g.next_below(4096) as usize % n;
            buf[pos] = g.next_u64() as u8;
        }
        let cut = (g.next_below(4096) as usize).min(buf.len());
        let _ = culda_sampler::load_phi(&buf[..cut]); // must not panic
        let _ = culda_sampler::load_phi(buf.as_slice());
    }
}

#[test]
fn fold_in_theta_always_conserves_length() {
    let mut g = cases(5);
    for _ in 0..16 {
        let len = 1 + g.next_below(49) as usize;
        let words: Vec<u32> = (0..len).map(|_| g.next_below(12)).collect();
        let iters = 1 + g.next_below(7);
        let case = ModelCase {
            k: 6,
            v: 12,
            phi_counts: (0..72).map(|i| (i % 5) as u32 + 1).collect(),
            theta_dense: vec![],
            word: 0,
        };
        let phi = build_phi(&case);
        let device = culda_gpusim::Device::new(0, culda_gpusim::GpuSpec::titan_xp_pascal());
        let cfg = InferKernelConfig {
            burnin: iters / 2,
            samples: iters - iters / 2,
            ..InferKernelConfig::new(9)
        };
        let docs = [InferDoc {
            stream_id: 0,
            words: &words,
        }];
        let (post, _) =
            try_run_infer_kernel(&device, &phi, &phi.inv_denominators(), &docs, &cfg).unwrap();
        let total: u64 = post[0].theta_acc.iter().sum();
        assert_eq!(total, words.len() as u64 * u64::from(post[0].acc_sweeps));
    }
}
