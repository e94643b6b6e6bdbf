/**
 * @file
 * Transaction status structure (TSS), conflict domains and the domain
 * summary-signature table.
 *
 * The TSS tracks all running transactions (paper Section IV-E). This
 * implementation additionally indexes active transactions by conflict
 * domain — the unit of UHTM's signature-isolation optimization — and
 * hosts the per-domain slow-path serialization lock used by the
 * Algorithm-1 fallback.
 *
 * The TxSummaryTable is a simulator-side hot-path structure in the
 * spirit of Bulk-style "notary" filters: per conflict domain (plus one
 * global filter for the non-isolated baselines) it keeps the union of
 * every active transaction's read and write signatures. An LLC-miss
 * conflict check probes the union once; a miss proves that *no* active
 * transaction's filter can contain the line, short-circuiting the
 * 2-probes-per-transaction walk. The union is updated incrementally on
 * signature inserts and lazily rebuilt (on the next probe) after a
 * commit or abort retires a transaction's bits.
 */

#ifndef UHTM_HTM_TSS_HH
#define UHTM_HTM_TSS_HH

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "htm/signature.hh"
#include "htm/tx_desc.hh"
#include "sim/line_map.hh"
#include "sim/types.hh"

namespace uhtm
{

/**
 * Union ("summary") signatures over the active transactions of each
 * conflict domain, plus a global union across domains.
 *
 * Guarantee: a summary miss implies that every active transaction's
 * read and write signature also misses (no false negatives) — inserts
 * reach the summary synchronously with the member filter, and retiring
 * a member only ever *removes* bits, which the lazy rebuild handles
 * before the next probe. As a defense against out-of-band member
 * mutation (tests poke signature bits directly), every probe also
 * cross-checks the members' total insert count against the count the
 * union was built from and rebuilds on mismatch; the check is two
 * counter loads per member, far cheaper than the probes it guards.
 */
class TxSummaryTable
{
  public:
    /** Enable the table with the member signatures' geometry. */
    void
    configure(unsigned bits, unsigned hashes)
    {
        _bits = BloomSignature::effectiveBits(bits);
        _hashes = hashes ? hashes : 1;
        _global = Entry{BloomSignature(_bits, _hashes), true};
        for (auto &e : _domains)
            e = Entry{BloomSignature(_bits, _hashes), true};
    }

    bool enabled() const { return _bits != 0; }

    void
    addDomain()
    {
        _domains.push_back(
            Entry{BloomSignature(_bits ? _bits : 64, _hashes ? _hashes : 1),
                  true});
    }

    /** Mirror a member-signature insert into the union filters.
     *  @p key is a line address or a precomputed SigProbe. */
    template <typename Key>
    void
    noteInsert(DomainId d, const Key &key)
    {
        if (!enabled())
            return;
        assert(d < _domains.size());
        // A dirty union is rebuilt from the member filters before its
        // next probe, which will include this insert; updating it now
        // would be wasted work. Each call mirrors exactly one member
        // insert, keeping builtInserts aligned with memberInserts().
        if (!_domains[d].dirty) {
            _domains[d].sig.insert(key);
            ++_domains[d].builtInserts;
        }
        if (!_global.dirty) {
            _global.sig.insert(key);
            ++_global.builtInserts;
        }
    }

    /** A transaction with signature bits retired: schedule rebuilds. */
    void
    noteRetire(DomainId d)
    {
        if (!enabled())
            return;
        assert(d < _domains.size());
        _domains[d].dirty = true;
        _global.dirty = true;
    }

    /** Probe the domain union (rebuilding it first if stale).
     *  @p key is a line address or a precomputed SigProbe. */
    template <typename Key>
    bool
    mayContain(DomainId d, const Key &key,
               const std::vector<TxDesc *> &domain_active)
    {
        assert(enabled() && d < _domains.size());
        return probe(_domains[d], key, domain_active);
    }

    /** Probe the global union (rebuilding it first if stale). */
    template <typename Key>
    bool
    mayContainAny(const Key &key, const std::vector<TxDesc *> &all_active)
    {
        assert(enabled());
        return probe(_global, key, all_active);
    }

  private:
    struct Entry
    {
        BloomSignature sig{64, 1};
        /** Total member inserts the union was built from. */
        std::uint64_t builtInserts = 0;
        /** Stale unions rebuild lazily on the next probe. */
        bool dirty = true;
    };

    static std::uint64_t
    memberInserts(const std::vector<TxDesc *> &members)
    {
        std::uint64_t n = 0;
        for (const TxDesc *t : members)
            n += t->readSig.inserts() + t->writeSig.inserts();
        return n;
    }

    template <typename Key>
    static bool
    probe(Entry &e, const Key &key, const std::vector<TxDesc *> &members)
    {
        const std::uint64_t inserts = memberInserts(members);
        if (e.dirty || inserts != e.builtInserts) {
            e.sig.clear();
            for (const TxDesc *t : members) {
                e.sig.unionWith(t->readSig);
                e.sig.unionWith(t->writeSig);
            }
            e.builtInserts = inserts;
            e.dirty = false;
        }
        return !e.sig.empty() && e.sig.mayContain(key);
    }

    unsigned _bits = 0;
    unsigned _hashes = 0;
    Entry _global;
    std::vector<Entry> _domains;
};

/**
 * A conflict domain: a group of transactions sharing one address space
 * (one simulated process). The paper generates the group id in the
 * pthread library; here the harness assigns it when placing workloads.
 */
struct ConflictDomain
{
    DomainId id = 0;
    std::string name;

    /** Slow-path serialization lock (Algorithm 1's fallback lock). */
    TxId lockHolder = kNoTx;

    /** Coroutines waiting for the lock / for the lock to clear. */
    std::deque<std::coroutine_handle<>> waiters;

    bool locked() const { return lockHolder != kNoTx; }
};

/** Registry of active transactions (it owns their descriptors) and
 *  conflict domains. */
class Tss
{
  public:
    /** Create a new conflict domain and return its id. */
    DomainId
    createDomain(std::string name)
    {
        const DomainId id = static_cast<DomainId>(_domains.size());
        ConflictDomain d;
        d.id = id;
        d.name = std::move(name);
        _domains.push_back(std::move(d));
        _activeByDomain.emplace_back();
        _summaries.addDomain();
        return id;
    }

    ConflictDomain &
    domain(DomainId id)
    {
        assert(id < _domains.size());
        return _domains[id];
    }

    std::size_t domainCount() const { return _domains.size(); }

    /** Register a freshly begun transaction; the registry owns it. */
    TxDesc *
    add(std::unique_ptr<TxDesc> desc)
    {
        TxDesc *tx = desc.get();
        assert(tx && tx->id != kNoTx);
        _byId.emplace(tx->id, std::move(desc));
        _active.push_back(tx);
        _activeByDomain[tx->domain].push_back(tx);
        return tx;
    }

    /** Deregister a finished (committed or aborted) transaction and
     *  destroy its descriptor. */
    void
    remove(TxDesc *tx)
    {
        eraseFrom(_active, tx);
        eraseFrom(_activeByDomain[tx->domain], tx);
        // Only transactions that contributed signature bits stale the
        // summary unions.
        if (tx->readSig.inserts() || tx->writeSig.inserts())
            _summaries.noteRetire(tx->domain);
        _byId.erase(tx->id);
    }

    /** Active descriptor by id, or nullptr (stale ids prune to null). */
    TxDesc *
    byId(TxId id) const
    {
        auto it = _byId.find(id);
        return it == _byId.end() ? nullptr : it->second.get();
    }

    /** All active transactions. */
    const std::vector<TxDesc *> &active() const { return _active; }

    /** Active transactions of one conflict domain. */
    const std::vector<TxDesc *> &
    activeInDomain(DomainId d) const
    {
        assert(d < _activeByDomain.size());
        return _activeByDomain[d];
    }

    /** Enable the domain summary filters (call before any begin). */
    void
    configureSummaries(unsigned bits, unsigned hashes)
    {
        _summaries.configure(bits, hashes);
    }

    bool summariesEnabled() const { return _summaries.enabled(); }

    /** Mirror a member-signature insert into the summary filters.
     *  @p key is a line address or a precomputed SigProbe. */
    template <typename Key>
    void
    noteSigInsert(DomainId d, const Key &key)
    {
        _summaries.noteInsert(d, key);
    }

    /** One-probe union check over a domain's active transactions.
     *  @p key is a line address or a precomputed SigProbe. */
    template <typename Key>
    bool
    summaryMayContain(DomainId d, const Key &key)
    {
        return _summaries.mayContain(d, key, _activeByDomain[d]);
    }

    /** One-probe union check over all active transactions. */
    template <typename Key>
    bool
    summaryMayContainAny(const Key &key)
    {
        return _summaries.mayContainAny(key, _active);
    }

  private:
    static void
    eraseFrom(std::vector<TxDesc *> &v, TxDesc *tx)
    {
        auto it = std::find(v.begin(), v.end(), tx);
        if (it != v.end()) {
            *it = v.back();
            v.pop_back();
        }
    }

    LineMap<std::unique_ptr<TxDesc>> _byId;
    std::vector<TxDesc *> _active;
    std::vector<std::vector<TxDesc *>> _activeByDomain;
    std::vector<ConflictDomain> _domains;
    TxSummaryTable _summaries;
};

} // namespace uhtm

#endif // UHTM_HTM_TSS_HH
