#include "join/star_schema.h"

#include <gtest/gtest.h>

#include "engine/executor.h"

namespace congress {
namespace {

struct Fixture {
  Table fact{Schema({Field{"fk_region", DataType::kInt64},
                     Field{"amount", DataType::kDouble}})};
  Table region{Schema({Field{"r_id", DataType::kInt64},
                       Field{"r_name", DataType::kString},
                       Field{"r_zone", DataType::kInt64}})};

  Fixture() {
    EXPECT_TRUE(
        region.AppendRow({Value(int64_t{1}), Value("east"), Value(int64_t{10})})
            .ok());
    EXPECT_TRUE(
        region.AppendRow({Value(int64_t{2}), Value("west"), Value(int64_t{20})})
            .ok());
    EXPECT_TRUE(fact.AppendRow({Value(int64_t{1}), Value(5.0)}).ok());
    EXPECT_TRUE(fact.AppendRow({Value(int64_t{2}), Value(7.0)}).ok());
    EXPECT_TRUE(fact.AppendRow({Value(int64_t{1}), Value(9.0)}).ok());
  }

  StarSchema MakeSchema() const {
    StarSchema schema;
    schema.fact = &fact;
    schema.dimensions = {DimensionSpec{&region, 0, 0, "r_"}};
    return schema;
  }
};

TEST(StarSchemaTest, ValidatesCleanSchema) {
  Fixture f;
  EXPECT_TRUE(ValidateStarSchema(f.MakeSchema()).ok());
}

TEST(StarSchemaTest, RejectsMissingTables) {
  StarSchema schema;
  EXPECT_FALSE(ValidateStarSchema(schema).ok());
  Fixture f;
  schema = f.MakeSchema();
  schema.dimensions[0].table = nullptr;
  EXPECT_FALSE(ValidateStarSchema(schema).ok());
}

TEST(StarSchemaTest, RejectsOutOfRangeColumns) {
  Fixture f;
  StarSchema schema = f.MakeSchema();
  schema.dimensions[0].fact_fk_column = 9;
  EXPECT_FALSE(ValidateStarSchema(schema).ok());
  schema = f.MakeSchema();
  schema.dimensions[0].dim_key_column = 9;
  EXPECT_FALSE(ValidateStarSchema(schema).ok());
}

TEST(StarSchemaTest, RejectsDuplicateDimensionKeys) {
  Fixture f;
  ASSERT_TRUE(
      f.region.AppendRow({Value(int64_t{1}), Value("dup"), Value(int64_t{30})})
          .ok());
  EXPECT_FALSE(ValidateStarSchema(f.MakeSchema()).ok());
}

TEST(StarSchemaTest, RejectsDanglingForeignKey) {
  Fixture f;
  ASSERT_TRUE(f.fact.AppendRow({Value(int64_t{99}), Value(1.0)}).ok());
  Status st = ValidateStarSchema(f.MakeSchema());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("dangling"), std::string::npos);
}

TEST(StarSchemaTest, WidenedSchemaPrefixesAndSkipsKey) {
  Fixture f;
  auto schema = WidenedSchema(f.MakeSchema());
  ASSERT_TRUE(schema.ok());
  ASSERT_EQ(schema->num_fields(), 4u);  // 2 fact + 2 non-key dim columns.
  EXPECT_EQ(schema->field(0).name, "fk_region");
  EXPECT_EQ(schema->field(2).name, "r_r_name");
  EXPECT_EQ(schema->field(3).name, "r_r_zone");
}

TEST(StarSchemaTest, MaterializePreservesFactCardinality) {
  Fixture f;
  auto joined = MaterializeStarJoin(f.MakeSchema());
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 3u);
  // Row 1 joined west.
  EXPECT_EQ(joined->GetValue(1, 2), Value("west"));
  EXPECT_EQ(joined->GetValue(1, 3), Value(int64_t{20}));
  // Rows 0 and 2 joined east.
  EXPECT_EQ(joined->GetValue(0, 2), Value("east"));
  EXPECT_EQ(joined->GetValue(2, 2), Value("east"));
}

TEST(StarSchemaTest, MaterializeMatchesGenericHashJoin) {
  Fixture f;
  auto star = MaterializeStarJoin(f.MakeSchema());
  auto generic = HashJoin(f.fact, {0}, f.region, {0});
  ASSERT_TRUE(star.ok() && generic.ok());
  ASSERT_EQ(star->num_rows(), generic->num_rows());
  // Same aggregate over both join results.
  GroupByQuery q;
  q.group_columns = {2};  // r_name in both layouts.
  q.aggregates = {AggregateSpec{AggregateKind::kSum, 1}};
  auto a = ExecuteExact(*star, q);
  auto b = ExecuteExact(*generic, q);
  ASSERT_TRUE(a.ok() && b.ok());
  for (const ApproximateGroupRow& row : a->rows()) {
    const auto other = b->Find(row.key);
    ASSERT_TRUE(other.has_value());
    EXPECT_DOUBLE_EQ(other->estimates[0], row.estimates[0]);
  }
}

TEST(StarSchemaTest, WidenFactRowSingle) {
  Fixture f;
  auto row = WidenFactRow(f.MakeSchema(), 2);
  ASSERT_TRUE(row.ok());
  ASSERT_EQ(row->size(), 4u);
  EXPECT_EQ((*row)[1], Value(9.0));
  EXPECT_EQ((*row)[2], Value("east"));
  EXPECT_FALSE(WidenFactRow(f.MakeSchema(), 99).ok());
}

TEST(StarSchemaTest, WidenerReusable) {
  Fixture f;
  StarSchema schema = f.MakeSchema();
  auto widener = StarJoinWidener::Create(schema);
  ASSERT_TRUE(widener.ok());
  std::vector<Value> row;
  for (size_t r = 0; r < f.fact.num_rows(); ++r) {
    ASSERT_TRUE(widener->Widen(r, &row).ok());
    EXPECT_EQ(row.size(), 4u);
    EXPECT_EQ(row[1], f.fact.GetValue(r, 1));
  }
  EXPECT_FALSE(widener->Widen(99, &row).ok());
}

TEST(StarSchemaTest, TwoDimensions) {
  Fixture f;
  Table color{Schema({Field{"c_id", DataType::kInt64},
                      Field{"c_name", DataType::kString}})};
  ASSERT_TRUE(color.AppendRow({Value(int64_t{5}), Value("red")}).ok());
  // Reuse amount column as a (valid) FK = 5? No: amounts are 5.0/7.0/9.0
  // doubles. Add a second FK column instead via a fresh fact table.
  Table fact2{Schema({Field{"fk_region", DataType::kInt64},
                      Field{"fk_color", DataType::kInt64},
                      Field{"v", DataType::kDouble}})};
  ASSERT_TRUE(
      fact2.AppendRow({Value(int64_t{2}), Value(int64_t{5}), Value(1.5)})
          .ok());
  StarSchema schema;
  schema.fact = &fact2;
  schema.dimensions = {DimensionSpec{&f.region, 0, 0, "r_"},
                       DimensionSpec{&color, 1, 0, "c_"}};
  ASSERT_TRUE(ValidateStarSchema(schema).ok());
  auto joined = MaterializeStarJoin(schema);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined->num_rows(), 1u);
  EXPECT_EQ(joined->num_columns(), 6u);  // 3 fact + 2 region + 1 color.
  EXPECT_EQ(joined->GetValue(0, 3), Value("west"));
  EXPECT_EQ(joined->GetValue(0, 5), Value("red"));
}

}  // namespace
}  // namespace congress
