//! Table schemas.

use crate::value::DataType;
use expred_stats::hash::Fnv64;
use std::fmt;

/// One named, typed column descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    name: String,
    data_type: DataType,
    nullable: bool,
}

impl Field {
    /// A non-nullable field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Self {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    /// A nullable field.
    pub fn nullable(name: impl Into<String>, data_type: DataType) -> Self {
        Self {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    /// Field name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Field type.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }

    /// Whether NULLs are permitted.
    pub fn is_nullable(&self) -> bool {
        self.nullable
    }
}

/// An ordered collection of uniquely named fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Builds a schema, validating that field names are unique and
    /// non-empty. Panics on violation — schemas are programmer-supplied
    /// constants, not runtime inputs.
    pub fn new(fields: Vec<Field>) -> Self {
        let mut seen = std::collections::HashSet::new();
        for f in &fields {
            assert!(!f.name().is_empty(), "field names must be non-empty");
            assert!(
                seen.insert(f.name().to_owned()),
                "duplicate field name {:?}",
                f.name()
            );
        }
        Self { fields }
    }

    /// All fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the field with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name() == name)
    }

    /// The field with the given name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name() == name)
    }

    /// A 64-bit structural fingerprint, stable across processes (FNV-1a
    /// over field names, types, and nullability, in declaration order).
    ///
    /// Together with [`crate::table::Table::version`] (a *content*
    /// fingerprint) this gives a table a durable identity that —
    /// unlike [`crate::table::TableId`], a process-local counter —
    /// survives restarts: two tables agreeing on both fingerprints hold
    /// the same rows under the same schema, so persisted per-row answers
    /// keyed by `(schema fingerprint, version)` can be rehydrated into a
    /// fresh process without ever serving a stale or mismatched entry.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.fields.len() as u64);
        for field in &self.fields {
            h.write_str(field.name());
            let type_tag = match field.data_type() {
                DataType::Bool => 1u64,
                DataType::Int => 2,
                DataType::Float => 3,
                DataType::Str => 4,
            };
            h.write_u64(type_tag);
            h.write_u64(field.is_nullable() as u64);
        }
        h.finish()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.name(), field.data_type())?;
            if field.is_nullable() {
                write!(f, "?")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name_and_index() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::nullable("b", DataType::Str),
        ]);
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.index_of("b"), Some(1));
        assert_eq!(schema.index_of("missing"), None);
        assert_eq!(schema.field("a").unwrap().data_type(), DataType::Int);
        assert!(schema.field("b").unwrap().is_nullable());
        assert!(!schema.field("a").unwrap().is_nullable());
    }

    #[test]
    fn display_is_readable() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::nullable("y", DataType::Bool),
        ]);
        assert_eq!(schema.to_string(), "(x: float, y: bool?)");
    }

    #[test]
    fn fingerprint_is_structural() {
        let a = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::nullable("b", DataType::Str),
        ]);
        let same = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::nullable("b", DataType::Str),
        ]);
        assert_eq!(a.fingerprint(), same.fingerprint());
        // Every structural difference must move the fingerprint: field
        // order, name, type, and nullability all participate.
        let reordered = Schema::new(vec![
            Field::nullable("b", DataType::Str),
            Field::new("a", DataType::Int),
        ]);
        let renamed = Schema::new(vec![
            Field::new("a2", DataType::Int),
            Field::nullable("b", DataType::Str),
        ]);
        let retyped = Schema::new(vec![
            Field::new("a", DataType::Float),
            Field::nullable("b", DataType::Str),
        ]);
        let denulled = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
        ]);
        for other in [&reordered, &renamed, &retyped, &denulled] {
            assert_ne!(a.fingerprint(), other.fingerprint());
        }
    }

    #[test]
    #[should_panic]
    fn rejects_duplicate_names() {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Str),
        ]);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_names() {
        Schema::new(vec![Field::new("", DataType::Int)]);
    }
}
