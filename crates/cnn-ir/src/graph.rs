//! The CNN model graph: a DAG of layers in topological order.
//!
//! Nodes are appended through [`GraphBuilder`], which guarantees that every
//! node's inputs were created before it — insertion order therefore *is* a
//! topological order, and downstream passes (shape inference, lowering)
//! iterate the node vector directly.

use crate::layer::{Layer, ShapeError};
use crate::shape::TensorShape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Opaque node handle within one [`ModelGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One operation in the graph.
#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
pub struct Node {
    pub id: NodeId,
    pub name: String,
    pub layer: Layer,
    pub inputs: Vec<NodeId>,
}

/// A complete CNN model. Hashing is structural over every field, so two
/// graphs hash alike exactly when they are built alike (dropout rates by
/// bit pattern, see [`Layer`]).
#[derive(Debug, Clone, Hash, Serialize, Deserialize)]
pub struct ModelGraph {
    name: String,
    /// The "depth" the architecture is named after (e.g. 50 for ResNet-50).
    nominal_depth: u32,
    nodes: Vec<Node>,
    output: NodeId,
}

impl ModelGraph {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn nominal_depth(&self) -> u32 {
        self.nominal_depth
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub fn output(&self) -> NodeId {
        self.output
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Input shape of the model (the first `Input` node).
    pub fn input_shape(&self) -> TensorShape {
        self.nodes
            .iter()
            .find_map(|n| match n.layer {
                Layer::Input { shape } => Some(shape),
                _ => None,
            })
            .expect("graph has an input node")
    }

    /// Run shape inference over the whole graph. Returns one shape per node,
    /// indexed by `NodeId::index()`.
    pub fn infer_shapes(&self) -> Result<Vec<TensorShape>, GraphError> {
        infer_over(&self.nodes)
    }
}

/// Shape inference over a topologically ordered node slice.
fn infer_over(nodes: &[Node]) -> Result<Vec<TensorShape>, GraphError> {
    let mut shapes: Vec<TensorShape> = Vec::with_capacity(nodes.len());
    for node in nodes {
        let ins: Vec<TensorShape> = node.inputs.iter().map(|i| shapes[i.index()]).collect();
        let out = node
            .layer
            .output_shape(&ins)
            .map_err(|source| GraphError::Shape {
                node: node.name.clone(),
                source,
            })?;
        shapes.push(out);
    }
    Ok(shapes)
}

/// Errors raised while validating or analyzing a graph.
#[derive(Debug)]
pub enum GraphError {
    Shape { node: String, source: ShapeError },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Shape { node, source } => {
                write!(f, "shape error at node '{node}': {source}")
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Shape { source, .. } => Some(source),
        }
    }
}

/// Incremental builder for [`ModelGraph`].
///
/// ```
/// use cnn_ir::{GraphBuilder, Layer, Conv2d, Padding, TensorShape, ActKind};
///
/// let mut b = GraphBuilder::new("tiny", 2);
/// let x = b.input(TensorShape::square(32, 3));
/// let x = b.layer(Layer::Conv2d(Conv2d::new(8, 3, 1, Padding::Same)), &[x]);
/// let x = b.layer(Layer::Activation(ActKind::Relu), &[x]);
/// let g = b.finish(x);
/// assert_eq!(g.len(), 3);
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    name: String,
    nominal_depth: u32,
    nodes: Vec<Node>,
    name_counters: std::collections::HashMap<&'static str, u32>,
}

impl GraphBuilder {
    pub fn new(name: impl Into<String>, nominal_depth: u32) -> Self {
        Self {
            name: name.into(),
            nominal_depth,
            nodes: Vec::new(),
            name_counters: std::collections::HashMap::new(),
        }
    }

    /// Append the model input. Must be called exactly once, first.
    pub fn input(&mut self, shape: TensorShape) -> NodeId {
        assert!(
            self.nodes.is_empty(),
            "input must be the first node of the graph"
        );
        self.layer(Layer::Input { shape }, &[])
    }

    /// Append a layer fed by `inputs`. Panics if any input id is unknown —
    /// that is a programming error in the model definition.
    pub fn layer(&mut self, layer: Layer, inputs: &[NodeId]) -> NodeId {
        for i in inputs {
            assert!(
                (i.0 as usize) < self.nodes.len(),
                "input {i:?} does not exist yet"
            );
        }
        let kind = layer.kind_name();
        let n = self.name_counters.entry(kind).or_insert(0);
        let name = format!("{kind}_{n}");
        *n += 1;
        self.named_layer(name, layer, inputs)
    }

    /// Append a layer with an explicit name.
    pub fn named_layer(
        &mut self,
        name: impl Into<String>,
        layer: Layer,
        inputs: &[NodeId],
    ) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("graph too large"));
        self.nodes.push(Node {
            id,
            name: name.into(),
            layer,
            inputs: inputs.to_vec(),
        });
        id
    }

    /// Shapes of every node added so far. Useful for builders whose wiring
    /// depends on intermediate shapes (e.g. NASNet's adjust blocks). Panics
    /// on a shape error — that is a bug in the model definition.
    pub fn peek_shapes(&self) -> Vec<TensorShape> {
        infer_over(&self.nodes).expect("shape error while building graph")
    }

    /// Finalize the graph with `output` as the model output node.
    pub fn finish(self, output: NodeId) -> ModelGraph {
        assert!(
            (output.0 as usize) < self.nodes.len(),
            "output node does not exist"
        );
        assert!(
            matches!(
                self.nodes.first().map(|n| &n.layer),
                Some(Layer::Input { .. })
            ),
            "graph must start with an input node"
        );
        ModelGraph {
            name: self.name,
            nominal_depth: self.nominal_depth,
            nodes: self.nodes,
            output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ActKind, Conv2d, Dense};
    use crate::shape::Padding;

    fn tiny() -> ModelGraph {
        let mut b = GraphBuilder::new("tiny", 3);
        let x = b.input(TensorShape::square(8, 3));
        let c = b.layer(Layer::Conv2d(Conv2d::new(4, 3, 1, Padding::Same)), &[x]);
        let r = b.layer(Layer::Activation(ActKind::Relu), &[c]);
        let f = b.layer(Layer::Flatten, &[r]);
        let d = b.layer(Layer::Dense(Dense::new(10)), &[f]);
        b.finish(d)
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let g = tiny();
        for (i, n) in g.nodes().iter().enumerate() {
            assert_eq!(n.id.index(), i);
        }
        assert_eq!(g.output().index(), 4);
    }

    #[test]
    fn inputs_precede_consumers() {
        let g = tiny();
        for n in g.nodes() {
            for i in &n.inputs {
                assert!(i.index() < n.id.index());
            }
        }
    }

    #[test]
    fn shape_inference_end_to_end() {
        let g = tiny();
        let shapes = g.infer_shapes().unwrap();
        assert_eq!(shapes[1], TensorShape::hwc(8, 8, 4));
        assert_eq!(shapes[3], TensorShape::flat(8 * 8 * 4));
        assert_eq!(shapes[4], TensorShape::flat(10));
    }

    #[test]
    fn auto_names_are_unique() {
        let g = tiny();
        let mut names: Vec<&str> = g.nodes().iter().map(|n| n.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), g.len());
    }

    #[test]
    #[should_panic(expected = "input must be the first node")]
    fn input_must_be_first() {
        let mut b = GraphBuilder::new("bad", 1);
        let _ = b.named_layer("x", Layer::Flatten, &[]);
        let _ = b.input(TensorShape::square(8, 3));
    }

    #[test]
    fn shape_error_carries_node_name() {
        let mut b = GraphBuilder::new("bad", 1);
        let x = b.input(TensorShape::square(4, 3));
        // 7x7 VALID pool does not fit a 4x4 input
        let p = b.layer(
            Layer::Pool2d(crate::layer::Pool2d::max(7, 1, Padding::Valid)),
            &[x],
        );
        let g = b.finish(p);
        let err = g.infer_shapes().unwrap_err();
        assert!(err.to_string().contains("max_pool2d_0"));
    }
}
