//! Training loop: Adam optimizer, MSE / softmax-cross-entropy losses,
//! thread-parallel gradient accumulation, PSNR evaluation.

use crate::data::Sample;
use crate::float_model::{FloatModel, LayerGrads};
use ecnn_tensor::{psnr, Tensor};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainConfig {
    /// Mini-batch steps.
    pub steps: usize,
    /// Samples per step.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Sampling seed.
    pub seed: u64,
    /// Worker threads for per-sample gradients.
    pub threads: usize,
}

impl TrainConfig {
    /// A quick setting for tests and the lightweight scan stage.
    pub fn light(steps: usize) -> Self {
        Self {
            steps,
            batch: 4,
            lr: 1e-3,
            seed: 0,
            threads: 2,
        }
    }
}

/// Loss curve and summary from one training run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainStats {
    /// Per-step losses.
    pub losses: Vec<f32>,
    /// Mean loss over the final 10% of steps.
    pub final_loss: f32,
}

/// Adam state per parameter vector.
struct AdamState {
    m: Vec<LayerGrads>,
    v: Vec<LayerGrads>,
    t: u64,
}

impl AdamState {
    fn new(model: &FloatModel) -> Self {
        let zero = |l: &crate::float_model::FloatLayer| LayerGrads {
            dw: vec![0.0; l.w.len()],
            db: vec![0.0; l.b.len()],
            dw1: vec![0.0; l.w1.len()],
            db1: vec![0.0; l.b1.len()],
        };
        Self {
            m: model.layers.iter().map(zero).collect(),
            v: model.layers.iter().map(zero).collect(),
            t: 0,
        }
    }

    fn step(&mut self, model: &mut FloatModel, grads: &[LayerGrads], lr: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        for (li, layer) in model.layers.iter_mut().enumerate() {
            let g = &grads[li];
            let m = &mut self.m[li];
            let v = &mut self.v[li];
            let update = |p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]| {
                for i in 0..p.len() {
                    m[i] = B1 * m[i] + (1.0 - B1) * g[i];
                    v[i] = B2 * v[i] + (1.0 - B2) * g[i] * g[i];
                    let mh = m[i] / bc1;
                    let vh = v[i] / bc2;
                    p[i] -= lr * mh / (vh.sqrt() + EPS);
                }
            };
            update(&mut layer.w, &g.dw, &mut m.dw, &mut v.dw);
            update(&mut layer.b, &g.db, &mut m.db, &mut v.db);
            update(&mut layer.w1, &g.dw1, &mut m.dw1, &mut v.dw1);
            update(&mut layer.b1, &g.db1, &mut m.db1, &mut v.db1);
            // Keep pruned weights at exactly zero.
            if let Some(mask) = &layer.mask {
                for (wv, mv) in layer.w.iter_mut().zip(mask) {
                    *wv *= mv;
                }
            }
        }
    }
}

fn add_grads(into: &mut Vec<LayerGrads>, from: Vec<LayerGrads>) {
    if into.is_empty() {
        *into = from;
        return;
    }
    for (a, b) in into.iter_mut().zip(from) {
        for (x, y) in a.dw.iter_mut().zip(&b.dw) {
            *x += y;
        }
        for (x, y) in a.db.iter_mut().zip(&b.db) {
            *x += y;
        }
        for (x, y) in a.dw1.iter_mut().zip(&b.dw1) {
            *x += y;
        }
        for (x, y) in a.db1.iter_mut().zip(&b.db1) {
            *x += y;
        }
    }
}

fn scale_grads(g: &mut [LayerGrads], s: f32) {
    for lg in g {
        for v in lg
            .dw
            .iter_mut()
            .chain(&mut lg.db)
            .chain(&mut lg.dw1)
            .chain(&mut lg.db1)
        {
            *v *= s;
        }
    }
}

/// MSE loss and its gradient.
pub fn mse_loss(out: &Tensor<f32>, target: &Tensor<f32>) -> (f32, Tensor<f32>) {
    let n = out.len() as f32;
    let diff = out.sub(target);
    let loss = diff.as_slice().iter().map(|d| d * d).sum::<f32>() / n;
    let mut grad = diff;
    grad.scale(2.0 / n);
    (loss, grad)
}

/// Softmax cross-entropy over a `C×1×1` logit tensor.
pub fn softmax_ce_loss(out: &Tensor<f32>, class: usize) -> (f32, Tensor<f32>) {
    let logits = out.as_slice();
    let max = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let z: f32 = exps.iter().sum();
    let loss = -(exps[class] / z).ln();
    let mut grad = out.clone();
    for (i, g) in grad.as_mut_slice().iter_mut().enumerate() {
        *g = exps[i] / z - if i == class { 1.0 } else { 0.0 };
    }
    (loss, grad)
}

/// Gradients of the mean MSE over a batch, computed with `threads` workers.
fn batch_grads(model: &FloatModel, batch: &[&Sample], threads: usize) -> (f32, Vec<LayerGrads>) {
    let chunk = batch.len().div_ceil(threads.max(1));
    let results: Vec<(f32, Vec<LayerGrads>)> = crossbeam::scope(|scope| {
        let handles: Vec<_> = batch
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move |_| {
                    let mut loss = 0.0f32;
                    let mut grads: Vec<LayerGrads> = Vec::new();
                    for s in part {
                        let cache = model.forward(&s.input);
                        let (l, g) = mse_loss(cache.output(), &s.target);
                        loss += l;
                        add_grads(&mut grads, model.backward(&cache, g));
                    }
                    (loss, grads)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    })
    .expect("scope");
    let mut total_loss = 0.0;
    let mut total: Vec<LayerGrads> = Vec::new();
    for (l, g) in results {
        total_loss += l;
        add_grads(&mut total, g);
    }
    scale_grads(&mut total, 1.0 / batch.len() as f32);
    (total_loss / batch.len() as f32, total)
}

/// Trains `model` on `data` with MSE loss.
pub fn train(model: &mut FloatModel, data: &[Sample], cfg: TrainConfig) -> TrainStats {
    assert!(!data.is_empty(), "empty dataset");
    assert!(
        cfg.steps > 0,
        "zero training steps: nothing to train or report"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut adam = AdamState::new(model);
    let mut losses = Vec::with_capacity(cfg.steps);
    for _ in 0..cfg.steps {
        let batch: Vec<&Sample> = (0..cfg.batch)
            .map(|_| &data[rng.gen_range(0..data.len())])
            .collect();
        let (loss, grads) = batch_grads(model, &batch, cfg.threads);
        adam.step(model, &grads, cfg.lr);
        losses.push(loss);
    }
    let tail = (cfg.steps / 10).max(1);
    let final_loss = losses[losses.len() - tail..].iter().sum::<f32>() / tail as f32;
    TrainStats { losses, final_loss }
}

/// Trains a classifier with softmax cross-entropy (recognition case study).
pub fn train_classifier(
    model: &mut FloatModel,
    data: &[(Tensor<f32>, usize)],
    cfg: TrainConfig,
) -> TrainStats {
    assert!(!data.is_empty(), "empty dataset");
    assert!(
        cfg.steps > 0,
        "zero training steps: nothing to train or report"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut adam = AdamState::new(model);
    let mut losses = Vec::with_capacity(cfg.steps);
    for _ in 0..cfg.steps {
        let mut loss_sum = 0.0f32;
        let mut grads: Vec<LayerGrads> = Vec::new();
        for _ in 0..cfg.batch {
            let (img, class) = &data[rng.gen_range(0..data.len())];
            let cache = model.forward(img);
            let (l, g) = softmax_ce_loss(cache.output(), *class);
            loss_sum += l;
            add_grads(&mut grads, model.backward(&cache, g));
        }
        scale_grads(&mut grads, 1.0 / cfg.batch as f32);
        adam.step(model, &grads, cfg.lr);
        losses.push(loss_sum / cfg.batch as f32);
    }
    let tail = (cfg.steps / 10).max(1);
    let final_loss = losses[losses.len() - tail..].iter().sum::<f32>() / tail as f32;
    TrainStats { losses, final_loss }
}

/// Mean PSNR of the model over a validation set.
pub fn eval_psnr(model: &FloatModel, data: &[Sample]) -> f64 {
    let mut total = 0.0;
    for s in data {
        let out = model.forward(&s.input);
        total += psnr(out.output(), &s.target, 1.0);
    }
    total / data.len() as f64
}

/// Top-1 accuracy of a classifier.
pub fn eval_accuracy(model: &FloatModel, data: &[(Tensor<f32>, usize)]) -> f64 {
    let mut hits = 0usize;
    for (img, class) in data {
        let out = model.forward(img);
        let pred = out
            .output()
            .as_slice()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("nonempty");
        if pred == *class {
            hits += 1;
        }
    }
    hits as f64 / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{make_dataset, TaskKind};
    use ecnn_model::ernet::{ErNetSpec, ErNetTask};

    #[test]
    fn training_reduces_denoise_loss() {
        let ir = ErNetSpec::new(ErNetTask::Dn, 1, 1, 0).build().unwrap();
        let mut fm = FloatModel::from_model(&ir, 11);
        let data = make_dataset(TaskKind::denoise25(), 8, 24, 7);
        let stats = train(
            &mut fm,
            &data,
            TrainConfig {
                steps: 30,
                batch: 2,
                lr: 2e-3,
                seed: 1,
                threads: 2,
            },
        );
        let early: f32 = stats.losses[..5].iter().sum::<f32>() / 5.0;
        assert!(
            stats.final_loss < early * 0.8,
            "loss did not drop: {} -> {}",
            early,
            stats.final_loss
        );
    }

    #[test]
    fn trained_denoiser_beats_identity() {
        let ir = ErNetSpec::new(ErNetTask::Dn, 1, 1, 0).build().unwrap();
        let mut fm = FloatModel::from_model(&ir, 13);
        let train_data = make_dataset(TaskKind::denoise25(), 12, 24, 21);
        let val = make_dataset(TaskKind::denoise25(), 4, 24, 999);
        // The Dn template has no global input skip (faithful to the paper's
        // "SR4ERNet minus upsamplers" derivation), so reconstruction itself
        // must be learned — ~300 steps suffice at this scale.
        train(
            &mut fm,
            &train_data,
            TrainConfig {
                steps: 300,
                batch: 4,
                lr: 3e-3,
                seed: 2,
                threads: 2,
            },
        );
        let model_psnr = eval_psnr(&fm, &val);
        let noisy_psnr: f64 = val
            .iter()
            .map(|s| ecnn_tensor::psnr(&s.input, &s.target, 1.0))
            .sum::<f64>()
            / val.len() as f64;
        assert!(
            model_psnr > noisy_psnr + 0.5,
            "denoiser {model_psnr:.2} dB vs noisy {noisy_psnr:.2} dB"
        );
    }

    #[test]
    fn mse_loss_gradient_shape_and_sign() {
        let out = Tensor::from_fn(1, 2, 2, |_, y, x| (y + x) as f32);
        let target = Tensor::zeros(1, 2, 2);
        let (loss, grad) = mse_loss(&out, &target);
        assert!(loss > 0.0);
        assert!(grad.at(0, 1, 1) > 0.0);
        assert_eq!(grad.at(0, 0, 0), 0.0);
    }

    #[test]
    fn softmax_ce_prefers_true_class() {
        let mut out = Tensor::zeros(4, 1, 1);
        *out.at_mut(2, 0, 0) = 3.0;
        let (loss_true, grad) = softmax_ce_loss(&out, 2);
        let (loss_false, _) = softmax_ce_loss(&out, 0);
        assert!(loss_true < loss_false);
        assert!(grad.at(2, 0, 0) < 0.0); // push the true logit up
        assert!(grad.at(0, 0, 0) > 0.0);
    }

    fn zero_steps() -> TrainConfig {
        TrainConfig {
            steps: 0,
            batch: 1,
            lr: 1e-3,
            seed: 1,
            threads: 1,
        }
    }

    #[test]
    #[should_panic(expected = "zero training steps")]
    fn train_rejects_zero_steps() {
        let ir = ErNetSpec::new(ErNetTask::Dn, 1, 1, 0).build().unwrap();
        let mut fm = FloatModel::from_model(&ir, 1);
        let data = make_dataset(TaskKind::denoise25(), 1, 16, 1);
        train(&mut fm, &data, zero_steps());
    }

    #[test]
    #[should_panic(expected = "zero training steps")]
    fn train_classifier_rejects_zero_steps() {
        let mut fm = FloatModel::from_model(&ecnn_model::zoo::recognition_tiny(4), 1);
        let data = crate::data::make_classification_dataset(1, 32, 4, 1);
        train_classifier(&mut fm, &data, zero_steps());
    }

    #[test]
    fn threaded_and_single_threaded_agree() {
        let ir = ErNetSpec::new(ErNetTask::Dn, 1, 1, 0).build().unwrap();
        let fm = FloatModel::from_model(&ir, 17);
        let data = make_dataset(TaskKind::denoise25(), 4, 16, 3);
        let batch: Vec<&Sample> = data.iter().collect();
        let (l1, g1) = batch_grads(&fm, &batch, 1);
        let (l2, g2) = batch_grads(&fm, &batch, 2);
        assert!((l1 - l2).abs() < 1e-6);
        for (a, b) in g1.iter().zip(&g2) {
            for (x, y) in a.dw.iter().zip(&b.dw) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }
}
