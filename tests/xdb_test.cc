#include <gtest/gtest.h>

#include <algorithm>

#include "storage/temp_file.h"
#include "tests/test_helpers.h"
#include "util/fault_env.h"
#include "util/random.h"
#include "xdb/database.h"
#include "xml/xml_node.h"

namespace x3 {
namespace {

using testutil::OpenDb;
using testutil::OpenFigure1Db;

TEST(DictionaryTest, TagInternIsStable) {
  TagDictionary tags;
  TagId a = tags.Intern("author");
  TagId b = tags.Intern("year");
  EXPECT_NE(a, b);
  EXPECT_EQ(tags.Intern("author"), a);
  EXPECT_EQ(tags.Lookup("author"), a);
  EXPECT_EQ(tags.Lookup("nope"), kInvalidTagId);
  EXPECT_EQ(tags.Name(b), "year");
  EXPECT_EQ(tags.size(), 2u);
}

TEST(DictionaryTest, ValueIntern) {
  ValueDictionary values;
  ValueId v = values.Intern("2003");
  EXPECT_EQ(values.Intern("2003"), v);
  EXPECT_NE(values.Intern("2004"), v);
  EXPECT_EQ(values.Value(v), "2003");
  EXPECT_EQ(values.Lookup("2005"), kInvalidValueId);
}

TEST(DatabaseTest, LoadsFigure1) {
  auto db = OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->document_roots().size(), 1u);
  EXPECT_EQ(db->NodesWithTag("publication").size(), 4u);
  EXPECT_EQ(db->NodesWithTag("author").size(), 5u);
  EXPECT_EQ(db->NodesWithTag("year").size(), 5u);
  EXPECT_EQ(db->NodesWithTag("publisher").size(), 3u);
  EXPECT_EQ(db->NodesWithTag("@id").size(),
            4u + 5u + 3u);  // publications + authors + publishers
  EXPECT_TRUE(db->NodesWithTag("nosuch").empty());
}

TEST(DatabaseTest, IntervalLabelsAreConsistent) {
  auto db = OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  // Every node's interval must be contained in its parent's, and ids
  // are preorder, so parent < child <= parent.end.
  for (NodeId id = 1; id < db->node_count(); ++id) {
    NodeRecord rec;
    ASSERT_TRUE(db->GetNode(id, &rec).ok());
    ASSERT_NE(rec.parent, kInvalidNodeId);
    NodeRecord parent;
    ASSERT_TRUE(db->GetNode(rec.parent, &parent).ok());
    EXPECT_LT(rec.parent, id);
    EXPECT_LE(rec.end, parent.end);
    EXPECT_LE(id, rec.end);
    EXPECT_EQ(rec.level, parent.level + 1);
  }
  NodeRecord root;
  ASSERT_TRUE(db->GetNode(0, &root).ok());
  EXPECT_EQ(root.level, 0);
  EXPECT_EQ(root.end, db->node_count() - 1);
}

TEST(DatabaseTest, NodeValues) {
  auto db = OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  const auto& names = db->NodesWithTag("name");
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(*db->NodeValue(names[0]), "John");
  EXPECT_EQ(*db->NodeValue(names[1]), "Jane");
  // Attribute values.
  const auto& ids = db->NodesWithTag("@id");
  ASSERT_FALSE(ids.empty());
  EXPECT_EQ(*db->NodeValue(ids[0]), "1");
  // Element without text.
  const auto& pubs = db->NodesWithTag("publication");
  EXPECT_EQ(*db->NodeValue(pubs[0]), "");
}

TEST(DatabaseTest, DescendantsAndChildren) {
  auto db = OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  const auto& pubs = db->NodesWithTag("publication");
  TagId author = db->tags().Lookup("author");
  TagId name = db->tags().Lookup("name");

  // Publication 1 has two direct authors.
  auto d1 = db->DescendantsWithTag(pubs[0], author);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(d1->size(), 2u);
  auto c1 = db->ChildrenWithTag(pubs[0], author);
  ASSERT_TRUE(c1.ok());
  EXPECT_EQ(c1->size(), 2u);

  // Publication 3's author is nested under <authors>: descendant yes,
  // child no.
  auto d3 = db->DescendantsWithTag(pubs[2], author);
  ASSERT_TRUE(d3.ok());
  EXPECT_EQ(d3->size(), 1u);
  auto c3 = db->ChildrenWithTag(pubs[2], author);
  ASSERT_TRUE(c3.ok());
  EXPECT_TRUE(c3->empty());

  // name under publication 3 (depth 3).
  auto n3 = db->DescendantsWithTag(pubs[2], name);
  ASSERT_TRUE(n3.ok());
  ASSERT_EQ(n3->size(), 1u);
  EXPECT_EQ(*db->NodeValue((*n3)[0]), "Smith");
}

TEST(DatabaseTest, IsAncestor) {
  auto db = OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  const auto& pubs = db->NodesWithTag("publication");
  const auto& names = db->NodesWithTag("name");
  EXPECT_TRUE(*db->IsAncestor(0, pubs[0]));
  EXPECT_TRUE(*db->IsAncestor(pubs[0], names[0]));
  EXPECT_FALSE(*db->IsAncestor(pubs[1], names[0]));
  EXPECT_FALSE(*db->IsAncestor(pubs[0], pubs[0]));  // not proper
}

TEST(DatabaseTest, MultipleDocuments) {
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->LoadXmlString("<a><b/></a>").ok());
  ASSERT_TRUE(db->LoadXmlString("<a><b/><b/></a>").ok());
  EXPECT_EQ(db->document_roots().size(), 2u);
  EXPECT_EQ(db->NodesWithTag("a").size(), 2u);
  EXPECT_EQ(db->NodesWithTag("b").size(), 3u);
  // Intervals of distinct documents do not contain each other.
  EXPECT_FALSE(*db->IsAncestor(db->document_roots()[0],
                               db->document_roots()[1]));
}

TEST(DatabaseTest, SmallBufferPoolStillWorks) {
  // A 2-frame pool forces constant eviction during load and reads.
  auto db = OpenDb(/*pool_pages=*/2);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->LoadXmlString(testutil::kFigure1Xml).ok());
  EXPECT_EQ(db->NodesWithTag("publication").size(), 4u);
  NodeRecord rec;
  ASSERT_TRUE(db->GetNode(0, &rec).ok());
  EXPECT_EQ(rec.end, db->node_count() - 1);
}

TEST(DatabaseTest, EmptyDocumentRejected) {
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  XmlDocument empty;
  EXPECT_FALSE(db->LoadDocument(empty).ok());
}

TEST(NodeStoreTest, RecordRoundTrip) {
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->LoadXmlString("<r><x a=\"v\">text</x></r>").ok());
  // r=0, x=1, @a=2
  NodeRecord x;
  ASSERT_TRUE(db->GetNode(1, &x).ok());
  EXPECT_EQ(x.parent, 0u);
  EXPECT_EQ(x.kind, NodeKind::kElement);
  EXPECT_EQ(db->tags().Name(x.tag_id), "x");
  EXPECT_EQ(db->values().Value(x.value_id), "text");
  NodeRecord attr;
  ASSERT_TRUE(db->GetNode(2, &attr).ok());
  EXPECT_EQ(attr.kind, NodeKind::kAttribute);
  EXPECT_EQ(db->tags().Name(attr.tag_id), "@a");
  EXPECT_EQ(db->values().Value(attr.value_id), "v");
  EXPECT_EQ(attr.end, 2u);
}

TEST(NodeStoreTest, GetOutOfRange) {
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  NodeRecord rec;
  EXPECT_EQ(db->GetNode(0, &rec).code(), StatusCode::kOutOfRange);
}

TEST(NodeStoreTest, ManyNodesAcrossPages) {
  auto db = OpenDb(/*pool_pages=*/4);
  ASSERT_NE(db, nullptr);
  // > kRecordsPerPage nodes to span multiple pages.
  std::string xml = "<r>";
  for (int i = 0; i < 1000; ++i) xml += "<n/>";
  xml += "</r>";
  ASSERT_TRUE(db->LoadXmlString(xml).ok());
  EXPECT_EQ(db->node_count(), 1001u);
  EXPECT_EQ(db->NodesWithTag("n").size(), 1000u);
  NodeRecord rec;
  ASSERT_TRUE(db->GetNode(1000, &rec).ok());
  EXPECT_EQ(rec.parent, 0u);
}

TEST(DatabaseTest, ComputeStats) {
  auto db = OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  auto stats = db->ComputeStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->nodes, db->node_count());
  EXPECT_EQ(stats->documents, 1u);
  EXPECT_EQ(stats->attributes, 12u);  // 4 pub + 5 author + 3 publisher ids
  EXPECT_EQ(stats->elements, stats->nodes - stats->attributes);
  // database > publication > authors > author > name is depth 4.
  EXPECT_EQ(stats->max_depth, 4u);
  EXPECT_GT(stats->avg_depth, 1.0);
  EXPECT_LT(stats->avg_depth, 4.0);
  EXPECT_EQ(stats->distinct_tags, db->tags().size());
  EXPECT_GE(stats->data_pages, 1u);
}

TEST(DatabaseTest, ReconstructSubtreeRoundTrips) {
  auto db = OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  // Reconstruct the whole document and reload it into a second
  // database: the stored forms must be identical record for record
  // (the storage-level fixpoint property of load + reconstruct).
  auto doc = db->ReconstructSubtree(db->document_roots()[0]);
  ASSERT_TRUE(doc.ok()) << doc.status();
  auto db2 = OpenDb();
  ASSERT_NE(db2, nullptr);
  ASSERT_TRUE(db2->LoadDocument(*doc).ok());
  ASSERT_EQ(db2->node_count(), db->node_count());
  for (NodeId id = 0; id < db->node_count(); ++id) {
    NodeRecord a, b;
    ASSERT_TRUE(db->GetNode(id, &a).ok());
    ASSERT_TRUE(db2->GetNode(id, &b).ok());
    EXPECT_EQ(db->tags().Name(a.tag_id), db2->tags().Name(b.tag_id));
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.parent, b.parent);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.kind, b.kind);
    if (a.value_id == kInvalidValueId) {
      EXPECT_EQ(b.value_id, kInvalidValueId);
    } else {
      ASSERT_NE(b.value_id, kInvalidValueId);
      EXPECT_EQ(db->values().Value(a.value_id),
                db2->values().Value(b.value_id));
    }
  }
}

TEST(DatabaseTest, ReconstructPartialSubtree) {
  auto db = OpenFigure1Db();
  ASSERT_NE(db, nullptr);
  const auto& pubs = db->NodesWithTag("publication");
  auto doc = db->ReconstructSubtree(pubs[0]);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->tag(), "publication");
  ASSERT_NE(doc->root()->FindAttribute("id"), nullptr);
  EXPECT_EQ(*doc->root()->FindAttribute("id"), "1");
  EXPECT_NE(doc->root()->FirstChildElement("publisher"), nullptr);
  // Reconstructing from an attribute node is rejected.
  const auto& attrs = db->NodesWithTag("@id");
  EXPECT_FALSE(db->ReconstructSubtree(attrs[0]).ok());
}

TEST(DatabaseTest, ReconstructRandomTrees) {
  Random rng(777);
  auto db = OpenDb();
  ASSERT_NE(db, nullptr);
  for (int i = 0; i < 3; ++i) {
    XmlDocument doc(testutil::RandomTree(&rng, 60, 4, 3));
    ASSERT_TRUE(db->LoadDocument(doc).ok());
  }
  auto db2 = OpenDb();
  ASSERT_NE(db2, nullptr);
  for (NodeId root : db->document_roots()) {
    auto doc = db->ReconstructSubtree(root);
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE(db2->LoadDocument(*doc).ok());
  }
  EXPECT_EQ(db2->node_count(), db->node_count());
}

TEST(DatabasePersistenceTest, CheckpointAndReopen) {
  std::string data_file = "/tmp/x3-persist-test.db";
  std::remove(data_file.c_str());
  std::remove((data_file + ".cat").c_str());

  DatabaseOptions options;
  options.data_file = data_file;
  NodeId pub_count = 0;
  {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->LoadXmlString(testutil::kFigure1Xml).ok());
    pub_count = static_cast<NodeId>((*db)->NodesWithTag("publication").size());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  // Reopen from disk and verify structure and values survive.
  auto db = Database::OpenExisting(options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->NodesWithTag("publication").size(), pub_count);
  EXPECT_EQ((*db)->document_roots().size(), 1u);
  const auto& names = (*db)->NodesWithTag("name");
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(*(*db)->NodeValue(names[3]), "Smith");
  NodeRecord root;
  ASSERT_TRUE((*db)->GetNode(0, &root).ok());
  EXPECT_EQ(root.end, (*db)->node_count() - 1);
  // Loading more documents after reopen keeps global preorder intact.
  ASSERT_TRUE((*db)->LoadXmlString("<publication><year>2007</year>"
                                   "</publication>")
                  .ok());
  EXPECT_EQ((*db)->NodesWithTag("publication").size(), pub_count + 1);

  std::remove(data_file.c_str());
  std::remove((data_file + ".cat").c_str());
}

TEST(DatabasePersistenceTest, OpenExistingWithoutCatalogFails) {
  std::string data_file = "/tmp/x3-persist-nocat.db";
  std::remove(data_file.c_str());
  std::remove((data_file + ".cat").c_str());
  DatabaseOptions options;
  options.data_file = data_file;
  {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->LoadXmlString("<a/>").ok());
    // No checkpoint.
  }
  auto reopened = Database::OpenExisting(options);
  EXPECT_EQ(reopened.status().code(), StatusCode::kNotFound);
  std::remove(data_file.c_str());
}

TEST(DatabasePersistenceTest, OpenExistingNeedsPath) {
  EXPECT_EQ(Database::OpenExisting({}).status().code(),
            StatusCode::kInvalidArgument);
}

/// Checkpoints Figure 1 into <temp>/...db and returns its options, for
/// the recovery tests that damage the on-disk bytes afterwards.
class DatabaseRecoveryTest : public ::testing::Test {
 protected:
  DatabaseOptions CheckpointedDb() {
    DatabaseOptions options;
    options.data_file = temp_.NextPath("recovery-db");
    auto db = Database::Open(options);
    EXPECT_TRUE(db.ok());
    EXPECT_TRUE((*db)->LoadXmlString(testutil::kFigure1Xml).ok());
    EXPECT_TRUE((*db)->Checkpoint().ok());
    // The ".cat" sibling is not a TempFileManager path; remove it in
    // TearDown.
    catalog_path_ = options.data_file + ".cat";
    return options;
  }

  /// Like CheckpointedDb but with more than one page of records (full
  /// frozen pages + a partially filled tail page).
  DatabaseOptions MultiPageCheckpointedDb() {
    DatabaseOptions options;
    options.data_file = temp_.NextPath("recovery-multi-db");
    auto db = Database::Open(options);
    EXPECT_TRUE(db.ok());
    std::string xml = "<r>";
    for (int i = 0; i < 450; ++i) xml += "<x/>";
    xml += "</r>";
    EXPECT_TRUE((*db)->LoadXmlString(xml).ok());
    multi_page_nodes_ = (*db)->node_count();
    EXPECT_GT(multi_page_nodes_, NodeStore::kRecordsPerPage);
    EXPECT_NE(multi_page_nodes_ % NodeStore::kRecordsPerPage, 0u);
    EXPECT_TRUE((*db)->Checkpoint().ok());
    catalog_path_ = options.data_file + ".cat";
    return options;
  }

  void TearDown() override {
    if (!catalog_path_.empty()) {
      Env::Default()->RemoveFile(catalog_path_).IgnoreError();
    }
  }

  /// Flips one bit of `path` at `offset`.
  void FlipBit(const std::string& path, uint64_t offset) {
    auto file = Env::Default()->OpenFile(path, OpenMode::kReadWrite);
    ASSERT_TRUE(file.ok());
    uint8_t byte = 0;
    ASSERT_TRUE((*file)->ReadAt(offset, &byte, 1).ok());
    byte ^= 0x20;
    ASSERT_TRUE((*file)->WriteAt(offset, &byte, 1).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }

  TempFileManager temp_;
  std::string catalog_path_;
  NodeId multi_page_nodes_ = 0;
};

TEST_F(DatabaseRecoveryTest, BitFlippedTailPageHealsOnReopen) {
  // Figure 1 fits in the (single, partially filled) tail page, whose
  // records the checkpoint journals into the catalog — a bit flip
  // there is repaired from the journal instead of being fatal.
  DatabaseOptions options = CheckpointedDb();
  FlipBit(options.data_file, 100);
  auto reopened = Database::OpenExisting(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->recovery_stats().tail_page_rebuilt);
  EXPECT_EQ((*reopened)->NodesWithTag("publication").size(), 4u);
  EXPECT_EQ((*reopened)->NodesWithTag("author").size(), 5u);
  EXPECT_TRUE((*reopened)->ReconstructSubtree(0).ok());
}

TEST_F(DatabaseRecoveryTest, BitFlippedFrozenPageIsCorruptionOnReopen) {
  // Full pages are append-frozen and NOT journaled: damage there is
  // unrepairable and must surface as Corruption naming the page.
  DatabaseOptions options = MultiPageCheckpointedDb();
  FlipBit(options.data_file, 100);
  auto reopened = Database::OpenExisting(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().message().find("page 0"), std::string::npos)
      << reopened.status().ToString();
}

TEST_F(DatabaseRecoveryTest, DroppedTailPageHealsOnReopen) {
  // A page-aligned truncation that removes exactly the tail page is
  // rebuilt from the catalog journal.
  DatabaseOptions options = MultiPageCheckpointedDb();
  std::string contents;
  ASSERT_TRUE(
      ReadFileToString(Env::Default(), options.data_file, &contents).ok());
  ASSERT_GE(contents.size(), 2 * kDiskPageSize);
  contents.resize(contents.size() - kDiskPageSize);
  ASSERT_TRUE(
      WriteStringToFile(Env::Default(), options.data_file, contents).ok());
  auto reopened = Database::OpenExisting(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->recovery_stats().tail_page_rebuilt);
  EXPECT_EQ((*reopened)->node_count(), multi_page_nodes_);
}

TEST_F(DatabaseRecoveryTest, TruncatedPageFileIsCorruptionOnReopen) {
  // Losing a frozen full page is beyond repair: only the tail page is
  // journaled, so the size check must reject the file.
  DatabaseOptions options = MultiPageCheckpointedDb();
  std::string contents;
  ASSERT_TRUE(
      ReadFileToString(Env::Default(), options.data_file, &contents).ok());
  ASSERT_GE(contents.size(), 2 * kDiskPageSize);
  contents.resize(contents.size() - 2 * kDiskPageSize);
  ASSERT_TRUE(
      WriteStringToFile(Env::Default(), options.data_file, contents).ok());
  auto reopened = Database::OpenExisting(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().message().find("truncated page file?"),
            std::string::npos)
      << reopened.status().ToString();
}

TEST_F(DatabaseRecoveryTest, CorruptCatalogIsCorruptionOnReopen) {
  DatabaseOptions options = CheckpointedDb();
  FlipBit(options.data_file + ".cat", 24);
  auto reopened = Database::OpenExisting(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().message().find("failed checksum"),
            std::string::npos)
      << reopened.status().ToString();
}

TEST_F(DatabaseRecoveryTest, UndamagedDbReopensClean) {
  DatabaseOptions options = CheckpointedDb();
  auto reopened = Database::OpenExisting(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->NodesWithTag("publication").size(), 4u);
}

// --- Transactional ingest (WAL batches) ---

class DatabaseBatchTest : public ::testing::Test {
 protected:
  DatabaseOptions Options() {
    DatabaseOptions options;
    options.data_file = temp_.NextPath("batch-db");
    data_file_ = options.data_file;
    return options;
  }

  void TearDown() override {
    if (!data_file_.empty()) {
      Env::Default()->RemoveFile(data_file_ + ".cat").IgnoreError();
      WriteAheadLog::RemoveSegments(Env::Default(), data_file_)
          .IgnoreError();
    }
  }

  TempFileManager temp_;
  std::string data_file_;
};

TEST_F(DatabaseBatchTest, CommitMakesBatchDurableWithoutCheckpoint) {
  DatabaseOptions options = Options();
  {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());  // empty durable baseline
    ASSERT_TRUE((*db)->BeginBatch().ok());
    ASSERT_TRUE((*db)->LoadXmlString(testutil::kFigure1Xml).ok());
    ASSERT_TRUE((*db)->LoadXmlString("<extra><leaf/></extra>").ok());
    auto lsn = (*db)->CommitBatch();
    ASSERT_TRUE(lsn.ok()) << lsn.status();
    EXPECT_GT(*lsn, 0u);
    EXPECT_GT((*db)->last_commit_lsn(), (*db)->durable_lsn());
    // No checkpoint: the batch lives only in the WAL.
  }
  auto reopened = Database::OpenExisting(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery_stats().replayed_txns, 1u);
  EXPECT_EQ((*reopened)->recovery_stats().replayed_documents, 2u);
  EXPECT_EQ((*reopened)->document_roots().size(), 2u);
  EXPECT_EQ((*reopened)->NodesWithTag("publication").size(), 4u);
  EXPECT_EQ((*reopened)->NodesWithTag("leaf").size(), 1u);
  // begin + two data records + commit = LSNs 1..4.
  EXPECT_EQ((*reopened)->last_commit_lsn(), 4u);
  EXPECT_GT((*reopened)->last_commit_lsn(), (*reopened)->durable_lsn());
}

TEST_F(DatabaseBatchTest, ReplayIsIdempotentAcrossReopens) {
  DatabaseOptions options = Options();
  {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->BeginBatch().ok());
    ASSERT_TRUE((*db)->LoadXmlString(testutil::kFigure1Xml).ok());
    ASSERT_TRUE((*db)->CommitBatch().ok());
  }
  NodeId nodes_first = 0;
  {
    auto db = Database::OpenExisting(options);
    ASSERT_TRUE(db.ok()) << db.status();
    nodes_first = (*db)->node_count();
    EXPECT_EQ((*db)->recovery_stats().replayed_txns, 1u);
  }
  auto db = Database::OpenExisting(options);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->recovery_stats().replayed_txns, 1u);
  EXPECT_EQ((*db)->node_count(), nodes_first);
  EXPECT_EQ((*db)->NodesWithTag("publication").size(), 4u);
}

TEST_F(DatabaseBatchTest, CheckpointRaisesDurableHorizonAndDropsWal) {
  DatabaseOptions options = Options();
  {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->BeginBatch().ok());
    ASSERT_TRUE((*db)->LoadXmlString(testutil::kFigure1Xml).ok());
    ASSERT_TRUE((*db)->CommitBatch().ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_EQ((*db)->durable_lsn(), (*db)->last_commit_lsn());
    EXPECT_TRUE((*db)->wal()->SegmentPaths().empty());
  }
  auto reopened = Database::OpenExisting(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery_stats().replayed_txns, 0u);
  EXPECT_EQ((*reopened)->NodesWithTag("publication").size(), 4u);
  // LSNs stay monotonic across the checkpoint-emptied log.
  EXPECT_GT((*reopened)->wal()->next_lsn(), (*reopened)->durable_lsn());
}

TEST_F(DatabaseBatchTest, RollbackRestoresEveryStructure) {
  auto db = Database::Open(Options());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->LoadXmlString(testutil::kFigure1Xml).ok());
  NodeId nodes = (*db)->node_count();
  size_t tags = (*db)->tags().size();
  size_t values = (*db)->values().size();
  size_t roots = (*db)->document_roots().size();
  size_t pubs = (*db)->NodesWithTag("publication").size();

  ASSERT_TRUE((*db)->BeginBatch().ok());
  // Reuses existing tags (publication) and introduces new ones.
  ASSERT_TRUE(
      (*db)->LoadXmlString("<bundle><publication/><brandnew/></bundle>")
          .ok());
  ASSERT_TRUE((*db)->RollbackBatch().ok());

  EXPECT_EQ((*db)->node_count(), nodes);
  EXPECT_EQ((*db)->tags().size(), tags);
  EXPECT_EQ((*db)->values().size(), values);
  EXPECT_EQ((*db)->document_roots().size(), roots);
  EXPECT_EQ((*db)->NodesWithTag("publication").size(), pubs);
  EXPECT_TRUE((*db)->NodesWithTag("brandnew").empty());
  EXPECT_TRUE((*db)->NodesWithTag("bundle").empty());

  // The database is fully usable afterwards.
  ASSERT_TRUE((*db)->BeginBatch().ok());
  ASSERT_TRUE((*db)->LoadXmlString("<after/>").ok());
  ASSERT_TRUE((*db)->CommitBatch().ok());
  EXPECT_EQ((*db)->NodesWithTag("after").size(), 1u);
}

TEST_F(DatabaseBatchTest, BatchProtocolErrors) {
  auto db = Database::Open(Options());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->CommitBatch().status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*db)->RollbackBatch().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE((*db)->BeginBatch().ok());
  EXPECT_EQ((*db)->BeginBatch().code(), StatusCode::kInvalidArgument);
  // Checkpoint mid-batch is refused (it would have to either persist
  // or silently drop the uncommitted half).
  EXPECT_EQ((*db)->Checkpoint().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE((*db)->RollbackBatch().ok());
  EXPECT_TRUE((*db)->Checkpoint().ok());
}

TEST_F(DatabaseBatchTest, FailedCommitRollsBackMemoryAndReopenIsExact) {
  // Crash the WAL commit write partway (torn write): this process's
  // memory state rolls back, and a reopen recovers exactly the
  // committed prefix — the first batch, not half of the second.
  FaultInjectionEnv fault(Env::Default());
  DatabaseOptions options = Options();
  options.env = &fault;
  {
    auto db = Database::Open(options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->BeginBatch().ok());
    ASSERT_TRUE((*db)->LoadXmlString(testutil::kFigure1Xml).ok());
    ASSERT_TRUE((*db)->CommitBatch().ok());

    ASSERT_TRUE((*db)->BeginBatch().ok());
    ASSERT_TRUE((*db)->LoadXmlString("<doomed><x/><y/></doomed>").ok());
    NodeId committed_nodes_hwm = (*db)->node_count();
    FaultInjectionEnv::Options fo;
    fo.kind = FaultKind::kTornWriteCrash;
    fo.fail_op_index = 0;  // Arm resets the count; the next op (the
                           // commit's WriteAt) tears
    fault.Arm(fo);
    auto lsn = (*db)->CommitBatch();
    ASSERT_FALSE(lsn.ok());
    // Memory rolled back past the doomed batch.
    EXPECT_LT((*db)->node_count(), committed_nodes_hwm);
    EXPECT_TRUE((*db)->NodesWithTag("doomed").empty());
    EXPECT_EQ((*db)->NodesWithTag("publication").size(), 4u);
    // The WAL is poisoned until checkpoint/reopen.
    EXPECT_EQ((*db)->BeginBatch().code(), StatusCode::kInvalidArgument);
    fault.Arm(FaultInjectionEnv::Options());  // heal the "machine"
  }
  auto reopened = Database::OpenExisting(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // Exactly the committed prefix: batch 1 replayed; never a partial
  // "doomed" batch. (A torn prefix may cover the whole commit buffer,
  // in which case the doomed batch is legitimately durable — all or
  // nothing either way.)
  EXPECT_EQ((*reopened)->NodesWithTag("publication").size(), 4u);
  size_t doomed = (*reopened)->NodesWithTag("doomed").size();
  if (doomed != 0) {
    EXPECT_EQ((*reopened)->NodesWithTag("x").size(), 1u);
    EXPECT_EQ((*reopened)->NodesWithTag("y").size(), 1u);
  } else {
    EXPECT_TRUE((*reopened)->NodesWithTag("x").empty());
    EXPECT_TRUE((*reopened)->NodesWithTag("y").empty());
  }
}

TEST_F(DatabaseBatchTest, CheckpointHealsPoisonedWal) {
  FaultInjectionEnv fault(Env::Default());
  DatabaseOptions options = Options();
  options.env = &fault;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->BeginBatch().ok());
  ASSERT_TRUE((*db)->LoadXmlString("<first/>").ok());
  ASSERT_TRUE((*db)->CommitBatch().ok());  // opens the WAL segment
  ASSERT_TRUE((*db)->BeginBatch().ok());
  ASSERT_TRUE((*db)->LoadXmlString("<gone/>").ok());
  FaultInjectionEnv::Options fo;
  fo.kind = FaultKind::kSyncFailure;
  fo.fail_op_index = 1;  // the commit's Sync (op 0 is its WriteAt)
  fault.Arm(fo);
  ASSERT_FALSE((*db)->CommitBatch().ok());
  fault.Arm(FaultInjectionEnv::Options());  // disarm
  EXPECT_EQ((*db)->BeginBatch().code(), StatusCode::kInvalidArgument);
  // A checkpoint makes the rolled-back state durable, deletes the
  // unknown WAL tail, and revives the write path.
  ASSERT_TRUE((*db)->Checkpoint().ok());
  ASSERT_TRUE((*db)->BeginBatch().ok());
  ASSERT_TRUE((*db)->LoadXmlString("<revived/>").ok());
  ASSERT_TRUE((*db)->CommitBatch().ok());
  EXPECT_EQ((*db)->NodesWithTag("first").size(), 1u);
  EXPECT_EQ((*db)->NodesWithTag("revived").size(), 1u);
  EXPECT_TRUE((*db)->NodesWithTag("gone").empty());
}

}  // namespace
}  // namespace x3
