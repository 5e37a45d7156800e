/**
 * @file
 * A move-only callable stored entirely inside the object: the
 * simulator's replacement for std::function on the per-access path.
 *
 * The capture lives in a fixed inline buffer; a capture that does not
 * fit is a compile error (static_assert), never a heap allocation.
 * Construction, moves and destruction therefore never call
 * operator new, which is what lets the event queue and the L2 miss
 * path run allocation-free in steady state.
 */

#ifndef KILLI_SIM_INLINE_CALLABLE_HH
#define KILLI_SIM_INLINE_CALLABLE_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace killi
{

template <typename Sig, std::size_t Capacity>
class InlineCallable;

template <typename R, typename... Args, std::size_t Capacity>
class InlineCallable<R(Args...), Capacity>
{
    template <typename F>
    static constexpr bool isTarget =
        !std::is_same_v<std::decay_t<F>, InlineCallable> &&
        std::is_invocable_r_v<R, std::decay_t<F> &, Args...>;

  public:
    InlineCallable() = default;
    InlineCallable(std::nullptr_t) {}

    template <typename F, typename = std::enable_if_t<isTarget<F>>>
    InlineCallable(F &&f)
    {
        construct(std::forward<F>(f));
    }

    InlineCallable(InlineCallable &&other) noexcept { take(other); }

    InlineCallable &
    operator=(InlineCallable &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    /** Replace the target in place (no temporary, no relocation). */
    template <typename F, typename = std::enable_if_t<isTarget<F>>>
    InlineCallable &
    operator=(F &&f)
    {
        reset();
        construct(std::forward<F>(f));
        return *this;
    }

    InlineCallable(const InlineCallable &) = delete;
    InlineCallable &operator=(const InlineCallable &) = delete;

    ~InlineCallable() { reset(); }

    explicit operator bool() const { return ops != nullptr; }

    R
    operator()(Args... args)
    {
        return ops->invoke(storage, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct into raw @p dst and destroy @p src; null
         *  for trivially copyable targets (a memcpy suffices). */
        void (*relocate)(void *dst, void *src);
        /** Null for trivially destructible targets. */
        void (*destroy)(void *);
        std::size_t size;
    };

    template <typename D>
    static R
    invokeTarget(void *p, Args &&...args)
    {
        return (*static_cast<D *>(p))(std::forward<Args>(args)...);
    }

    template <typename D>
    static void
    relocateTarget(void *dst, void *src)
    {
        D *from = static_cast<D *>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
    }

    template <typename D>
    static void
    destroyTarget(void *p)
    {
        static_cast<D *>(p)->~D();
    }

    template <typename D>
    static constexpr Ops opsFor = {
        &invokeTarget<D>,
        std::is_trivially_copyable_v<D> ? nullptr : &relocateTarget<D>,
        std::is_trivially_destructible_v<D> ? nullptr : &destroyTarget<D>,
        sizeof(D)};

    template <typename F>
    void
    construct(F &&f)
    {
        using D = std::decay_t<F>;
        static_assert(sizeof(D) <= Capacity,
                      "capture does not fit the inline buffer");
        static_assert(alignof(D) <= alignof(void *),
                      "capture is over-aligned for the inline buffer");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "capture must be nothrow move-constructible");
        ::new (static_cast<void *>(storage)) D(std::forward<F>(f));
        ops = &opsFor<D>;
    }

    void
    take(InlineCallable &other) noexcept
    {
        if (!other.ops)
            return;
        if (other.ops->relocate)
            other.ops->relocate(storage, other.storage);
        else
            std::memcpy(storage, other.storage, other.ops->size);
        ops = other.ops;
        other.ops = nullptr;
    }

    void
    reset() noexcept
    {
        if (ops && ops->destroy)
            ops->destroy(storage);
        ops = nullptr;
    }

    alignas(void *) unsigned char storage[Capacity];
    const Ops *ops = nullptr;
};

} // namespace killi

#endif // KILLI_SIM_INLINE_CALLABLE_HH
