//! Property tests: random trees survive a write → parse round trip.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gks_xml::{Document, Writer};
use proptest::prelude::*;

type Fingerprint = Vec<(String, Vec<(String, String)>, String)>;

/// A random tree description: element names from a tiny alphabet, text from
/// printable characters (including ones that need escaping).
#[derive(Debug, Clone)]
enum Tree {
    Element {
        name: String,
        attrs: Vec<(String, String)>,
        children: Vec<Tree>,
    },
    Text(String),
}

fn arb_name() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["a", "b", "course", "x_y", "n.v"]).prop_map(str::to_string)
}

fn arb_text() -> impl Strategy<Value = String> {
    // Includes XML-significant characters; excludes control characters the
    // writer does not promise to preserve, and is trimmed because the
    // default reader trims insignificant edges.
    "[ -~]{1,20}"
        .prop_map(|s| s.trim().to_string())
        .prop_filter("non-empty after trim", |s| !s.is_empty())
}

fn arb_tree() -> impl Strategy<Value = Tree> {
    let leaf = prop_oneof![
        arb_text().prop_map(Tree::Text),
        (arb_name(), prop::collection::vec((arb_name(), arb_text()), 0..3))
            .prop_map(|(name, attrs)| Tree::Element { name, attrs, children: vec![] }),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        (
            arb_name(),
            prop::collection::vec((arb_name(), arb_text()), 0..2),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attrs, children)| Tree::Element { name, attrs, children })
    })
}

fn write_tree(w: &mut Writer, t: &Tree) {
    match t {
        Tree::Text(s) => w.text(s).unwrap(),
        Tree::Element { name, attrs, children } => {
            let attr_refs: Vec<(&str, &str)> =
                attrs.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            w.start(name, &attr_refs).unwrap();
            for c in children {
                write_tree(w, c);
            }
            w.end().unwrap();
        }
    }
}

/// Collects (element-name, attribute-pairs, own-direct-text) triples in
/// pre-order — a structural fingerprint that the round trip must preserve.
fn fingerprint(t: &Tree, out: &mut Fingerprint) {
    if let Tree::Element { name, attrs, children } = t {
        let own_text: String = children
            .iter()
            .filter_map(|c| match c {
                Tree::Text(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        out.push((name.clone(), attrs.clone(), own_text));
        for c in children {
            fingerprint(c, out);
        }
    }
}

fn fingerprint_node(n: &gks_xml::Node, out: &mut Fingerprint) {
    if n.is_element() {
        let own_text: String =
            n.children().iter().filter(|c| !c.is_element()).map(|c| c.text()).collect();
        out.push((n.name().to_string(), n.attributes().to_vec(), own_text));
        for c in n.children() {
            fingerprint_node(c, out);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn write_parse_round_trip(tree in arb_tree()) {
        // Ensure the root is an element.
        let root = match tree {
            Tree::Text(s) => Tree::Element {
                name: "root".into(),
                attrs: vec![],
                children: vec![Tree::Text(s)],
            },
            e => e,
        };
        let mut w = Writer::new();
        write_tree(&mut w, &root);
        let xml = w.finish().unwrap();
        let doc = Document::parse(&xml).unwrap();

        let mut expected = Vec::new();
        fingerprint(&root, &mut expected);
        let mut actual = Vec::new();
        fingerprint_node(doc.root(), &mut actual);
        // The reader trims text edges; adjacent generated text nodes may
        // differ by separator whitespace, so compare trimmed.
        let norm = |v: Fingerprint| {
            v.into_iter().map(|(n, a, t)| (n, a, t.trim().to_string())).collect::<Vec<_>>()
        };
        prop_assert_eq!(norm(actual), norm(expected));
    }
}
