#include "runtime/collectives.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "bigint/serialize.hpp"
#include "runtime/metrics.hpp"

namespace ftmul {

namespace {

/// One call-counter per collective. Each call site keeps the handle in a
/// function-local static, so after first registration a call costs one
/// relaxed load + sharded fetch_add (nothing but the load when disabled).
Counter collective_counter(const char* op) {
    return metrics::counter("ftmul_collectives_calls_total", {{"op", op}},
                            "collective operations entered, by op");
}

/// Binary-tree helpers over group positions, rotated so @p root sits at
/// position 0. Depth is ceil(log2(n)).
struct Tree {
    std::size_t n;
    std::size_t self;  // rotated position of the calling rank

    Tree(const Group& g, int root, int self_rank)
        : n(g.size()),
          self((g.index_of(self_rank) + n - g.index_of(root)) % n) {}

    bool has_parent() const { return self != 0; }
    std::size_t parent() const { return (self - 1) / 2; }
    std::vector<std::size_t> children() const {
        std::vector<std::size_t> out;
        if (2 * self + 1 < n) out.push_back(2 * self + 1);
        if (2 * self + 2 < n) out.push_back(2 * self + 2);
        return out;
    }

    std::uint64_t depth() const {
        return static_cast<std::uint64_t>(std::bit_width(n));
    }
};

int unrotate(const Group& g, int root, std::size_t pos) {
    const std::size_t n = g.size();
    return g.members[(pos + g.index_of(root)) % n];
}

void add_elementwise(std::vector<BigInt>& acc, const std::vector<BigInt>& v) {
    // An empty vector is the width-agnostic zero: a participant (e.g. a
    // code processor about to receive its column's code, or a failed rank
    // whose data is gone) may contribute it without knowing the width.
    if (v.empty()) return;
    if (acc.empty()) {
        acc = v;
        return;
    }
    if (acc.size() != v.size()) {
        throw std::invalid_argument("reduce: vector length mismatch");
    }
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += v[i];
}

/// A pooled copy of @p frame's words, for fanning one frame out to several
/// children without re-serializing.
PayloadBuf copy_frame(const PayloadBuf& frame) {
    PayloadBuf copy = MsgPool::instance().acquire(frame.size());
    copy.append(frame.data(), frame.size());
    return copy;
}

}  // namespace

void bcast(Rank& self, const Group& g, int root, std::vector<BigInt>& data,
           int tag) {
    assert(g.contains(self.id()));
    static const Counter calls = collective_counter("bcast");
    calls.inc();
    const Tree tree(g, root, self.id());
    // Frame-level forwarding: the wire frame is produced once at the root
    // and flows down the tree as raw words; interior nodes memcpy it to all
    // children but the last, which takes the buffer itself. Every edge
    // carries one message of the serialized data's word count, exactly
    // what decoding and re-sending at each hop would charge — only the
    // per-hop decode/re-encode and its allocations are skipped.
    const std::vector<std::size_t> children = tree.children();
    PayloadBuf frame;
    if (tree.has_parent()) {
        frame = self.recv_buf(unrotate(g, root, tree.parent()), tag);
        if (children.empty() && adoptable_frame(frame.words())) {
            data = deserialize_vec_adopt(frame.release());
        } else {
            data = deserialize_vec(frame.words());
        }
    } else if (!children.empty()) {
        frame = self.frame_bigints(data);
    }
    for (std::size_t i = 0; i < children.size(); ++i) {
        const int dst = unrotate(g, root, children[i]);
        if (i + 1 == children.size()) {
            self.send_buf(dst, tag, std::move(frame));
        } else {
            self.send_buf(dst, tag, copy_frame(frame));
        }
    }
    self.add_latency(tree.depth());
}

void bcast_pair(Rank& self, const Group& g, int root, std::vector<BigInt>& a,
                std::vector<BigInt>& b, int tag) {
    assert(g.contains(self.id()));
    static const Counter calls = collective_counter("bcast_pair");
    calls.inc();
    // Two broadcasts from the same root with the same tag, fused at the
    // transport: both frames ride one batched mailbox delivery per child
    // (FIFO per (src, tag) keeps them ordered). Charges are those of two
    // separate bcasts — one message per frame per edge, 2x tree depth in
    // latency.
    const Tree tree(g, root, self.id());
    const std::vector<std::size_t> children = tree.children();
    PayloadBuf frame_a;
    PayloadBuf frame_b;
    if (tree.has_parent()) {
        const int parent = unrotate(g, root, tree.parent());
        frame_a = self.recv_buf(parent, tag);
        frame_b = self.recv_buf(parent, tag);
        a = deserialize_vec(frame_a.words());
        if (children.empty() && adoptable_frame(frame_b.words())) {
            b = deserialize_vec_adopt(frame_b.release());
        } else {
            b = deserialize_vec(frame_b.words());
        }
    } else if (!children.empty()) {
        frame_a = self.frame_bigints(a);
        frame_b = self.frame_bigints(b);
    }
    for (std::size_t i = 0; i < children.size(); ++i) {
        const int dst = unrotate(g, root, children[i]);
        std::vector<TaggedPayload> msgs;
        msgs.reserve(2);
        if (i + 1 == children.size()) {
            msgs.push_back(TaggedPayload{tag, std::move(frame_a)});
            msgs.push_back(TaggedPayload{tag, std::move(frame_b)});
        } else {
            msgs.push_back(TaggedPayload{tag, copy_frame(frame_a)});
            msgs.push_back(TaggedPayload{tag, copy_frame(frame_b)});
        }
        self.send_batch(dst, std::move(msgs));
    }
    self.add_latency(2 * tree.depth());
}

std::vector<BigInt> reduce_sum(Rank& self, const Group& g, int root,
                               std::vector<BigInt> local, int tag) {
    assert(g.contains(self.id()));
    static const Counter calls = collective_counter("reduce_sum");
    calls.inc();
    const Tree tree(g, root, self.id());
    // Post-order: fold children into the local value, then pass up.
    for (std::size_t child : tree.children()) {
        add_elementwise(local, self.recv_bigints(unrotate(g, root, child), tag));
    }
    self.add_latency(tree.depth());
    if (tree.has_parent()) {
        self.send_bigints(unrotate(g, root, tree.parent()), tag, local);
        return {};
    }
    return local;
}

std::vector<BigInt> allreduce_sum(Rank& self, const Group& g,
                                  std::vector<BigInt> local, int tag) {
    const int root = g.members.front();
    static const Counter calls = collective_counter("allreduce_sum");
    calls.inc();
    std::vector<BigInt> sum = reduce_sum(self, g, root, std::move(local), tag);
    bcast(self, g, root, sum, tag);
    return sum;
}

std::vector<std::vector<BigInt>> gather(Rank& self, const Group& g, int root,
                                        std::vector<BigInt> local, int tag) {
    assert(g.contains(self.id()));
    static const Counter calls = collective_counter("gather");
    calls.inc();
    if (self.id() != root) {
        self.send_bigints(root, tag, local);
        self.add_latency(1);
        return {};
    }
    std::vector<std::vector<BigInt>> out(g.size());
    for (std::size_t i = 0; i < g.size(); ++i) {
        const int member = g.members[i];
        out[i] = member == root ? std::move(local)
                                : self.recv_bigints(member, tag);
    }
    self.add_latency(g.size() > 1 ? g.size() - 1 : 1);
    return out;
}

std::vector<std::vector<BigInt>> allgather(Rank& self, const Group& g,
                                           std::vector<BigInt> local, int tag) {
    const int root = g.members.front();
    static const Counter calls = collective_counter("allgather");
    calls.inc();
    auto gathered = gather(self, g, root, std::move(local), tag);
    // Broadcast the concatenation with section lengths preserved.
    std::vector<BigInt> flat;
    std::vector<BigInt> lengths;
    if (self.id() == root) {
        for (const auto& v : gathered) {
            lengths.emplace_back(static_cast<std::int64_t>(v.size()));
            flat.insert(flat.end(), v.begin(), v.end());
        }
    }
    bcast_pair(self, g, root, lengths, flat, tag);
    std::vector<std::vector<BigInt>> out(g.size());
    std::size_t pos = 0;
    for (std::size_t i = 0; i < g.size(); ++i) {
        const auto len = static_cast<std::size_t>(lengths[i].to_int64());
        out[i].assign(std::make_move_iterator(flat.begin() + static_cast<std::ptrdiff_t>(pos)),
                      std::make_move_iterator(flat.begin() + static_cast<std::ptrdiff_t>(pos + len)));
        pos += len;
    }
    return out;
}

std::vector<std::vector<BigInt>> alltoall(Rank& self, const Group& g,
                                          std::vector<std::vector<BigInt>> blocks,
                                          int tag) {
    assert(g.contains(self.id()));
    static const Counter calls = collective_counter("alltoall");
    calls.inc();
    if (blocks.size() != g.size()) {
        throw std::invalid_argument("alltoall: need one block per member");
    }
    const std::size_t me = g.index_of(self.id());
    std::vector<std::vector<BigInt>> out(g.size());
    // Send to every peer first (non-blocking semantics: mailbox buffers).
    for (std::size_t i = 0; i < g.size(); ++i) {
        if (i == me) {
            out[i] = std::move(blocks[i]);
        } else {
            self.send_bigints(g.members[i], tag, blocks[i]);
        }
    }
    for (std::size_t i = 0; i < g.size(); ++i) {
        if (i != me) out[i] = self.recv_bigints(g.members[i], tag);
    }
    self.add_latency(g.size() > 1 ? g.size() - 1 : 0);
    return out;
}

void barrier(Rank& self, const Group& g, int tag) {
    static const Counter calls = collective_counter("barrier");
    calls.inc();
    allreduce_sum(self, g, std::vector<BigInt>{}, tag);
}

}  // namespace ftmul
