//! Model zoo: the five networks evaluated in the paper.
//!
//! All builders take the batch size and produce an ImageNet-classification
//! graph over `batch × 3 × 224 × 224` fp32 inputs (the TVM tutorial setting
//! the paper uses). Layer shapes follow the published architectures:
//!
//! * [`alexnet`] — Krizhevsky et al., NIPS 2012 (torchvision variant).
//! * [`resnet18`] — He et al., CVPR 2016.
//! * [`vgg16`] — Simonyan & Zisserman, ICLR 2015.
//! * [`mobilenet_v1`] — Howard et al., 2017 (width multiplier 1.0).
//! * [`squeezenet_v1_1`] — Iandola et al., 2016.

mod alexnet;
mod mobilenet;
mod resnet;
mod squeezenet;
mod vgg;

pub use alexnet::alexnet;
pub use mobilenet::mobilenet_v1;
pub use resnet::{resnet18, resnet34};
pub use squeezenet::squeezenet_v1_1;
pub use vgg::{vgg16, vgg19};

use crate::graph::{Graph, NodeId};
use crate::ops::{Padding, Pool2dAttrs, PoolKind};

/// Resolves a model name (batch size 1), accepting the short aliases
/// `mobilenet` and `squeezenet`.
///
/// # Errors
///
/// Returns an error listing the valid names.
pub fn by_name(name: &str) -> Result<Graph, String> {
    match name {
        "alexnet" => Ok(alexnet(1)),
        "resnet18" => Ok(resnet18(1)),
        "resnet34" => Ok(resnet34(1)),
        "vgg16" => Ok(vgg16(1)),
        "vgg19" => Ok(vgg19(1)),
        "mobilenet_v1" | "mobilenet" => Ok(mobilenet_v1(1)),
        "squeezenet_v1.1" | "squeezenet" => Ok(squeezenet_v1_1(1)),
        other => Err(format!(
            "unknown model `{other}` (alexnet, resnet18, resnet34, vgg16, vgg19, \
             mobilenet_v1, squeezenet_v1.1)"
        )),
    }
}

/// All five paper models, in Table I order.
#[must_use]
pub fn paper_models(batch: usize) -> Vec<Graph> {
    vec![alexnet(batch), resnet18(batch), vgg16(batch), mobilenet_v1(batch), squeezenet_v1_1(batch)]
}

/// conv → batch-norm → ReLU, the ubiquitous fused block.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_bn_relu(
    g: &mut Graph,
    x: NodeId,
    ic: usize,
    oc: usize,
    k: usize,
    s: usize,
    p: usize,
    groups: usize,
) -> NodeId {
    let c = g
        .add_conv2d(x, ic, oc, k, s, p, groups, false)
        .expect("model builders use consistent channel counts");
    let b = g.add_batch_norm(c);
    g.add_relu(b)
}

/// conv → ReLU (no batch-norm), used by the pre-BN era models.
pub(crate) fn conv_relu(
    g: &mut Graph,
    x: NodeId,
    ic: usize,
    oc: usize,
    k: usize,
    s: usize,
    p: usize,
) -> NodeId {
    let c = g
        .add_conv2d(x, ic, oc, k, s, p, 1, true)
        .expect("model builders use consistent channel counts");
    g.add_relu(c)
}

/// Max pool helper.
pub(crate) fn max_pool(
    g: &mut Graph,
    x: NodeId,
    k: usize,
    s: usize,
    p: usize,
    ceil_mode: bool,
) -> NodeId {
    g.add_pool2d(
        x,
        Pool2dAttrs {
            kind: PoolKind::Max,
            kernel: (k, k),
            stride: (s, s),
            padding: Padding::same(p),
            ceil_mode,
        },
    )
    .expect("model builders pool rank-4 tensors")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::extract_tasks;

    #[test]
    fn paper_task_counts() {
        // The paper tunes 19 MobileNet-v1 nodes (Fig. 5) and 58 nodes across
        // all five models (Section V). Our Relay-free extraction reproduces
        // the per-model MobileNet count exactly; the totals per model are
        // locked here so any graph change is caught.
        let counts: Vec<(String, usize)> =
            paper_models(1).iter().map(|m| (m.name.clone(), extract_tasks(m).len())).collect();
        assert_eq!(
            counts,
            vec![
                ("alexnet".to_string(), 5),
                ("resnet18".to_string(), 11),
                ("vgg16".to_string(), 9),
                ("mobilenet_v1".to_string(), 19),
                ("squeezenet_v1.1".to_string(), 18),
            ]
        );
    }

    #[test]
    fn all_models_validate_and_end_in_softmax() {
        for m in paper_models(1) {
            m.validate().unwrap();
            let outs = m.output_ids();
            assert_eq!(outs.len(), 1, "{} must have one output", m.name);
            let out = m.node(outs[0]);
            assert_eq!(out.output.dims(), &[1, 1000], "{}", m.name);
        }
    }

    #[test]
    fn batch_size_propagates() {
        for m in paper_models(4) {
            let out = m.node(m.output_ids()[0]);
            assert_eq!(out.output.dim(0), 4, "{}", m.name);
        }
    }
}
