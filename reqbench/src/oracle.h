#ifndef REQBENCH_ORACLE_H_
#define REQBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "aqua.h"
#include "requests.h"

namespace reqbench {

/// Order-sensitive 64-bit hash of a sequence of words.
class Hasher {
 public:
  Hasher& Add(uint64_t v);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Fingerprints a query answer. A set hashes its elements' hashes in sorted
/// order (sets compare order-insensitively); a tree hashes its preorder as
/// (oid, arity) pairs; a list its oids; a tuple its fields' hashes; an
/// integer scalar is its own hash.
Answer Fingerprint(const aqua::Datum& d);

/// The expected answers, computed by walking the generated collections
/// through public `StoreView` reads only: no pattern matcher, rewriter or
/// executor is involved. Each template's reference is a few lines because
/// the templates are single-node predicates, parent-with-child patterns and
/// fixed-length list motifs.
class Oracle {
 public:
  explicit Oracle(const aqua::Database& db);

  /// Not valid after DropReadTables.
  Answer Expect(const ReadRequest& r, size_t plan) const;

  /// Frees the tables only Expect reads, keeping what the write checks
  /// need, so the reference stays out of the run's peak RSS.
  void DropReadTables();

  /// Persons with this citizenship: the node count a write's apply returns.
  size_t CitizenCount(const std::string& citizen) const;

  /// Persons whose `age` in `db` differs from what the write log implies
  /// (the last write to their citizenship, else the generated age).
  size_t AgeMismatches(const aqua::Database& db,
                       const std::vector<WriteRequest>& log) const;

 private:
  struct Person {
    aqua::Oid oid;
    std::string name;
    std::string citizen;
    std::vector<uint32_t> children;  // NodeIds of the family tree
  };
  // What the write checks need of one person (the sentinel excluded).
  struct Aged {
    aqua::Oid oid;
    uint32_t citizen = 0;  // index into citizens_
    int64_t age = 0;       // as generated
  };
  struct Item {
    aqua::Oid oid;
    std::string name;
    int64_t val = 0;
    size_t subtree = 1;
    size_t arity = 0;
  };
  struct Note {
    aqua::Oid oid;
    std::string pitch;
    int64_t duration = 0;
  };

  // Family-tree nodes indexed by NodeId; `sentinel_` is the forest root.
  std::vector<Person> people_;
  uint32_t sentinel_ = 0;
  std::vector<Item> items_;
  std::map<std::string, std::vector<Note>> songs_;
  std::vector<std::string> citizens_;
  std::vector<Aged> aged_;
};

}  // namespace reqbench

#endif  // REQBENCH_ORACLE_H_
